#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "dema/local_core.h"
#include "net/dedup.h"
#include "net/keyed.h"
#include "shard/config.h"
#include "shard/outbox.h"
#include "sim/node.h"

namespace dema::shard {

/// \brief A multi-tenant local node: the Dema local protocol for every key,
/// multiplexed onto keyed frames.
///
/// One `core::LocalCore` holds what all keys share (options, instruments,
/// scratch, the node's retained-memory totals); each key owns only a compact
/// `core::LocalStream` in a flat slab indexed by key id, with its private
/// window/sort/slice state. At each watermark the synopses of all keys that
/// closed a window go straight into ONE `kShardSynopsisBatch` frame per
/// shard — the per-(local, shard) batching that keeps the frame count
/// independent of the key count. Inbound keyed candidate requests and gamma
/// updates are validated whole and deduplicated once per frame, then each
/// entry's payload is decoded in place from the frame on its key's state,
/// and the resulting candidate replies are batched the same way.
///
/// Not thread-safe (same contract as `DemaLocalNode`): the hosting run loop
/// serializes calls.
class KeyedLocalNode final : public sim::NodeLogic, private core::LocalSink {
 public:
  /// Local \p id (1..num_locals) of the deployment \p config, talking to
  /// the shard service (node 0). It records into `config.registry`
  /// (`local.*{node=N}`), or its own registry when that is null.
  /// \p transport and \p clock must outlive the node.
  KeyedLocalNode(const ShardedConfig& config, NodeId id,
                 transport::Transport* transport, const Clock* clock);

  /// Ingests one event for \p key. Fails on out-of-range keys (the key
  /// universe is declared in the config).
  Status OnEvent(net::KeyId key, const Event& e);

  /// Advances every key's watermark; ships all closed windows' synopses as
  /// one keyed frame per shard.
  Status OnWatermark(TimestampUs watermark_us);

  /// Ends every key's stream (empty windows included, so each per-key root
  /// can align all locals).
  Status OnFinish(TimestampUs final_watermark_us) {
    return OnWatermark(final_watermark_us);
  }

  /// Handles one keyed frame from the service (kShardCandidateRequest or
  /// kShardGammaUpdate; anything else is counted and dropped).
  Status OnMessage(const net::Message& outer) override;

  /// The registry the keys record into.
  obs::Registry* registry() const { return core_.registry(); }

 private:
  // core::LocalSink, for the key in `current_key_`.
  Status SendSynopsis(const core::SynopsisBatch& batch) override {
    return Stash(net::MessageType::kShardSynopsisBatch, batch);
  }
  Status SendReply(const core::CandidateReply& reply) override {
    return Stash(net::MessageType::kShardCandidateReply, reply);
  }
  /// Keyed runs never resync γ; failing loudly flags a programming error.
  Status SendGammaSync(const core::GammaSyncRequest&) override {
    return net::KeyedOuterType(net::MessageType::kGammaSyncRequest).status();
  }
  /// Appends \p payload to the outbox batch of the key's (shard, \p type),
  /// bound for the shard service (node 0).
  template <typename Payload>
  Status Stash(net::MessageType type, const Payload& payload) {
    const uint32_t shard = shard_of_[current_key_];
    outbox_.Batch(shard, type, shard, /*dst=*/0)->Add(current_key_, payload);
    return Status::OK();
  }

  /// Sends the batches the call produced.
  void Flush() { outbox_.Flush(id_, transport_, c_send_failures_); }

  NodeId id_;
  transport::Transport* transport_;
  core::LocalCore core_;
  /// Per-key protocol state, indexed by key id.
  std::vector<core::LocalStream> streams_;
  /// Cached shard of each key (hot path: one array read per sent entry).
  std::vector<uint32_t> shard_of_;
  /// Transport-level duplicate suppression over outer keyed frames.
  net::SeqDedup dedup_;
  /// The key whose stream the core is serving.
  net::KeyId current_key_ = 0;
  KeyedOutbox outbox_;
  obs::Counter* c_frames_;
  obs::Counter* c_bad_frame_;
  obs::Counter* c_unknown_key_;
  obs::Counter* c_send_failures_;
};

}  // namespace dema::shard
