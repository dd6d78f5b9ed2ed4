#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/registry.h"

namespace dema::exec {

/// \brief Configuration of a worker-pool executor.
struct ExecutorOptions {
  /// Worker threads in the pool. Clamped to at least 1.
  size_t workers = 2;
  /// Bounded task-queue capacity: `Submit` blocks once this many tasks are
  /// queued, which backpressures producers instead of buffering unboundedly
  /// (an ingest thread that outruns the pool must slow down, not OOM).
  /// Clamped to at least 1.
  size_t queue_capacity = 256;
  /// Metrics sink for the `exec.*` instruments. When null, the executor owns
  /// a private registry (reachable via `registry()`). Must outlive the
  /// executor when provided.
  obs::Registry* registry = nullptr;
};

/// \brief Fixed-size worker pool with a bounded task queue and futures.
///
/// The pool the sharded root service's shard strands run on
/// (`shard::ShardedRootService`). `Submit` is thread-safe and returns a
/// `std::future` for the task's result; completion order is whatever the
/// pool produces — callers that need ordered effects sequence the tasks
/// themselves (each strand runs its shard's tasks one at a time, in post
/// order).
///
/// Instruments (in the configured registry):
///   exec.workers            gauge     pool size
///   exec.queue_depth        gauge     tasks currently queued (not running)
///   exec.tasks_submitted    counter   tasks accepted by Submit
///   exec.tasks_completed    counter   tasks finished running
///   exec.queue_full_blocks  counter   Submit calls that had to wait for room
///   exec.task_run_us        histogram task execution time (not queue wait)
class Executor {
 public:
  explicit Executor(ExecutorOptions options = ExecutorOptions());
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Schedules \p fn on the pool and returns a future for its result. Blocks
  /// while the queue is full. After `Shutdown`, runs \p fn inline on the
  /// calling thread (the future is still valid), so late submitters degrade
  /// gracefully instead of deadlocking.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    // packaged_task is move-only but std::function requires copyable
    // callables; the shared_ptr wrapper bridges the two. The charge is
    // destroyed when `fn` returns, before the future becomes ready, so a
    // caller that waited on the future sees the task counted.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<Fn>(fn)]() mutable {
          TaskCharge charge(this);
          return fn();
        });
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Drains every queued task, then stops and joins the workers. Idempotent;
  /// also called by the destructor.
  void Shutdown();

  /// Worker threads in the pool.
  size_t workers() const { return threads_.size(); }

  /// Tasks queued but not yet picked up by a worker.
  size_t queue_depth() const;

  /// The registry this executor records into (the options-provided one, or
  /// the executor's own private registry).
  obs::Registry* registry() const { return registry_; }

 private:
  /// Pushes one type-erased task, blocking while the queue is full; runs it
  /// inline when the pool is already shut down.
  void Enqueue(std::function<void()> task);
  void WorkerLoop();
  /// Charges `exec.task_run_us` / `exec.tasks_completed` for the task
  /// running during its lifetime.
  class TaskCharge {
   public:
    explicit TaskCharge(Executor* pool)
        : pool_(pool), start_(std::chrono::steady_clock::now()) {}
    ~TaskCharge();
    TaskCharge(const TaskCharge&) = delete;
    TaskCharge& operator=(const TaskCharge&) = delete;

   private:
    Executor* pool_;
    std::chrono::steady_clock::time_point start_;
  };

  ExecutorOptions options_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;

  /// Cached registry instruments.
  obs::Counter* c_submitted_;
  obs::Counter* c_completed_;
  obs::Counter* c_queue_full_blocks_;
  obs::Gauge* g_workers_;
  obs::Gauge* g_queue_depth_;
  obs::Histogram* h_task_run_us_;
};

}  // namespace dema::exec
