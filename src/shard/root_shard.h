#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "dema/root_core.h"
#include "net/keyed.h"
#include "shard/config.h"
#include "shard/outbox.h"

namespace dema::shard {

/// Sink for one key's emitted window result.
using KeyedResultFn =
    std::function<void(net::KeyId, const sim::WindowOutput&)>;

/// \brief One root shard: the Dema root protocol for every key it owns.
///
/// One `core::RootCore` per shard holds what all keys share (options,
/// instruments, scratch buffers, recycled window buffers); each key owns only
/// a compact `core::RootStream` in a flat slab indexed by its dense slot in
/// the shard. Inbound keyed frames are validated whole, then each entry's
/// payload is decoded in place from the frame (the outer frame already
/// passed transport-level dedup). Outbound per-key payloads serialize
/// straight into one keyed batch per (destination, message type), sent as
/// one frame each when the call ends.
///
/// Not thread-safe: the owning service serializes all calls on the shard's
/// strand.
class RootShard final : private core::RootSink {
 public:
  /// Builds the per-key state for every key the shard owns under
  /// `ShardOfKey(key, config.num_shards) == index`. \p transport, \p clock
  /// and \p registry must outlive the shard.
  RootShard(uint32_t index, const ShardedConfig& config,
            transport::Transport* transport, const Clock* clock,
            obs::Registry* registry, KeyedResultFn on_result);

  /// Handles one inbound keyed frame (kShardSynopsisBatch or
  /// kShardCandidateReply). Malformed frames, wrong-shard frames, and
  /// unknown-key entries are counted and dropped — corruption must never
  /// take the shard down; per-entry payload validation (and quarantine) runs
  /// in the root core on that key's state.
  Status OnFrame(const net::Message& outer);

  /// Deadline tick over every key (retries ship as keyed frames).
  Status Tick();

  /// Declares the workload horizon to every key (deadline-mode gap fill).
  void NoteWindowHorizon(net::WindowId last);

  /// True when no key has a partially aggregated window.
  bool idle() const;

  /// Keys owned by this shard.
  size_t num_keys() const { return keys_.size(); }

  /// Per-key windows this shard emitted and published (any thread may read
  /// it).
  uint64_t windows_emitted() const {
    return windows_emitted_.load(std::memory_order_acquire);
  }

  uint32_t index() const { return index_; }

 private:
  // core::RootSink, for the key in `current_key_`.
  Status SendRequest(NodeId dst, const core::CandidateRequest& req) override;
  Status SendGamma(NodeId dst, const core::GammaUpdate& update) override;
  void Emit(const sim::WindowOutput& out) override;

  /// Sends the batches the call produced.
  void Flush();

  uint32_t index_;
  transport::Transport* transport_;
  KeyedResultFn on_result_;
  core::RootCore core_;
  /// Per-key protocol state, by slot.
  std::vector<core::RootStream> streams_;
  /// Owned keys by slot, ascending.
  std::vector<net::KeyId> keys_;
  /// Slot of each key id; `kNoSlot` for keys other shards own.
  std::vector<uint32_t> slot_of_;
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// The key whose payload or tick the core is serving.
  net::KeyId current_key_ = 0;
  KeyedOutbox outbox_;
  /// Written by the strand only; its own cache line keeps the shards'
  /// strands from contending on one counter.
  alignas(64) std::atomic<uint64_t> windows_emitted_{0};
  obs::Counter* c_frames_;
  obs::Counter* c_wrong_shard_;
  obs::Counter* c_unknown_key_;
  obs::Counter* c_bad_frame_;
  obs::Counter* c_send_failures_;
};

}  // namespace dema::shard
