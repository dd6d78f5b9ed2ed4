#include "exec/executor.h"

#include <algorithm>

namespace dema::exec {

Executor::Executor(ExecutorOptions options)
    : options_(options), registry_(options.registry) {
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  options_.workers = std::max<size_t>(1, options_.workers);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  c_submitted_ = registry_->GetCounter("exec.tasks_submitted");
  c_completed_ = registry_->GetCounter("exec.tasks_completed");
  c_queue_full_blocks_ = registry_->GetCounter("exec.queue_full_blocks");
  g_workers_ = registry_->GetGauge("exec.workers");
  g_queue_depth_ = registry_->GetGauge("exec.queue_depth");
  h_task_run_us_ = registry_->GetHistogram("exec.task_run_us");

  threads_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
  g_workers_->Set(static_cast<int64_t>(threads_.size()));
}

Executor::~Executor() { Shutdown(); }

size_t Executor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Executor::Enqueue(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!shutdown_) {
      if (queue_.size() >= options_.queue_capacity) {
        c_queue_full_blocks_->Increment();
        not_full_.wait(lock, [this] {
          return shutdown_ || queue_.size() < options_.queue_capacity;
        });
      }
      if (!shutdown_) {
        queue_.push_back(std::move(task));
        c_submitted_->Increment();
        g_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
        lock.unlock();
        not_empty_.notify_one();
        return;
      }
    }
  }
  // Pool already stopped: run inline so the caller's future still resolves.
  c_submitted_->Increment();
  task();
}

void Executor::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Drain-before-exit: queued work still runs after Shutdown flips the
      // flag, so every already-accepted future resolves.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      g_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    not_full_.notify_one();
    task();
  }
}

Executor::TaskCharge::~TaskCharge() {
  auto end = std::chrono::steady_clock::now();
  pool_->h_task_run_us_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count()));
  pool_->c_completed_->Increment();
}

void Executor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace dema::exec
