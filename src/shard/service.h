#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "exec/executor.h"
#include "net/dedup.h"
#include "net/keyed.h"
#include "obs/registry.h"
#include "shard/config.h"
#include "shard/result_store.h"
#include "shard/root_shard.h"
#include "sim/node.h"

namespace dema::shard {

/// \brief The multi-tenant root service: N independent `RootShard`s behind
/// one transport node, scheduled on the `src/exec` pool.
///
/// Each shard has a *strand* — a serialized task queue drained on the
/// executor — so shards progress concurrently while every individual shard
/// stays single-threaded (a shard's root core and key slab are plain
/// sequential state). Inbound keyed frames are routed by the frame's shard
/// index (`KeyedBatchReader::PeekShard`, no full decode on the run-loop
/// thread); query frames are answered inline from the thread-safe
/// `ResultStore`, so queries never wait behind window aggregation.
///
/// Implements `sim::RootNodeLogic`, so the existing drivers and the TCP
/// serve loop host it exactly like the single-root node.
class ShardedRootService final : public sim::RootNodeLogic {
 public:
  /// \p transport and \p clock must outlive the service. Invalid configs are
  /// reported via `init_status()` (every OnMessage fails until fixed),
  /// mirroring `DemaRootNode`.
  ShardedRootService(ShardedConfig config, transport::Transport* transport,
                     const Clock* clock);
  ~ShardedRootService() override;

  Status OnMessage(const net::Message& msg) override;

  /// Per-(key, window) results, called from shard strands — the callback
  /// must be thread-safe when the executor has > 1 worker.
  void SetKeyedResultCallback(KeyedResultFn cb) { on_result_ = std::move(cb); }
  /// `RootNodeLogic` sink: receives every per-key window output (without the
  /// key). Prefer `SetKeyedResultCallback`; same thread-safety contract.
  void SetResultCallback(sim::ResultCallback cb) override {
    callback_ = std::move(cb);
  }

  /// Total per-key windows emitted across all shards.
  uint64_t windows_emitted() const override;

  /// True when every strand is drained and every per-key root is idle.
  bool idle() const override;

  /// Deadline tick, fanned out to every shard on its strand.
  Status Tick() override;

  /// Declares the workload horizon to every per-key root (posted per
  /// strand).
  void NoteWindowHorizon(net::WindowId last);

  /// Blocks until every strand's queue is empty and no strand task is
  /// running, then returns the first error any strand task produced (sticky;
  /// also returned by subsequent OnMessage calls). The in-process pump calls
  /// it after each drain of the service inbox, so the candidate requests the
  /// strands produce are on the fabric before the local inboxes are examined.
  Status Quiesce() override;

  /// Answers a query in-process (same path the kShardQuery handler uses).
  net::KeyedQueryReply Query(const net::KeyedQuery& query) const {
    return store_.Query(query);
  }

  const ResultStore& store() const { return store_; }
  const ShardedConfig& config() const { return config_; }
  /// Construction-time validation result.
  const Status& init_status() const { return init_status_; }
  obs::Registry* registry() const { return registry_; }
  /// Shard \p s (test/diagnostic access).
  const RootShard& shard(uint32_t s) const { return *shards_[s]; }

 private:
  /// One shard's serialized task queue, drained on the executor.
  struct Strand {
    std::mutex mu;
    std::condition_variable idle_cv;
    std::deque<std::function<Status()>> tasks;
    bool running = false;
  };

  /// Enqueues \p fn on shard \p s's strand, scheduling a drain if idle.
  void Post(uint32_t s, std::function<Status()> fn);
  /// Drains strand \p s until its queue is empty (runs on the executor).
  void RunStrand(uint32_t s);
  void RecordError(const Status& st);
  Status FirstError() const;
  /// Publish hook wired into every per-key root.
  void OnKeyedResult(uint32_t s, net::KeyId key, const sim::WindowOutput& out);

  ShardedConfig config_;
  transport::Transport* transport_;
  Status init_status_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  exec::Executor executor_;
  ResultStore store_;
  std::vector<std::unique_ptr<RootShard>> shards_;
  std::vector<std::unique_ptr<Strand>> strands_;
  /// Transport-level duplicate suppression over outer frames (run-loop
  /// thread only).
  net::SeqDedup dedup_;
  KeyedResultFn on_result_;
  sim::ResultCallback callback_;
  mutable std::mutex error_mu_;
  Status first_error_;
  obs::Counter* c_queries_;
  obs::Counter* c_query_errors_;
  obs::Counter* c_bad_frame_;
  obs::Counter* c_reply_send_failures_;
};

}  // namespace dema::shard
