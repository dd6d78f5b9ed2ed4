#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "dema/local_node.h"
#include "net/dedup.h"
#include "net/keyed.h"
#include "shard/config.h"
#include "shard/outbox.h"

namespace dema::shard {

/// \brief Configuration of a keyed (multi-tenant) local node.
struct KeyedLocalNodeOptions {
  /// This node's id (1..num_locals).
  NodeId id = 1;
  /// The shard service's node id.
  NodeId service_id = 0;
  uint32_t num_shards = 1;
  uint64_t num_keys = 1;
  DurationUs window_len_us = kMicrosPerSecond;
  uint64_t initial_gamma = 10'000;
  stream::SortMode sort_mode = stream::SortMode::kSortOnClose;
  net::EventCodec reply_codec = net::EventCodec::kFixed;
  /// Shared metrics sink; the per-key locals label `local.*{node=N}` so they
  /// aggregate per hosting node. When null the mux owns one.
  obs::Registry* registry = nullptr;
  /// Optional sort+slice pool for the per-key locals (usually null: keyed
  /// windows are small, and the shard service's pool is for the root side).
  exec::Executor* executor = nullptr;
};

/// \brief A multi-tenant local node: one unmodified `DemaLocalNode` per key,
/// multiplexed onto keyed frames.
///
/// Every key's events feed that key's private window/sort/slice state
/// machine; at each watermark the synopses of all keys that closed a window
/// go straight into ONE `kShardSynopsisBatch` frame per shard — the
/// per-(local, shard) batching that keeps the frame count independent of
/// the key count. Inbound keyed candidate requests and gamma updates are
/// validated whole, then each entry is handed to its key's local as a view
/// into the frame, and the resulting candidate replies are batched the same
/// way.
///
/// Not thread-safe (same contract as `DemaLocalNode`): the hosting run loop
/// serializes calls.
class KeyedLocalNode {
 public:
  /// \p transport and \p clock must outlive the node.
  KeyedLocalNode(KeyedLocalNodeOptions options,
                 transport::Transport* transport, const Clock* clock);

  /// Ingests one event for \p key. Fails on out-of-range keys (the key
  /// universe is declared in the options).
  Status OnEvent(net::KeyId key, const Event& e);

  /// Advances every key's watermark; ships all closed windows' synopses as
  /// one keyed frame per shard.
  Status OnWatermark(TimestampUs watermark_us);

  /// Ends every key's stream (empty windows included, so each per-key root
  /// can align all locals).
  Status OnFinish(TimestampUs final_watermark_us);

  /// Handles one keyed frame from the service (kShardCandidateRequest or
  /// kShardGammaUpdate; anything else is counted and dropped).
  Status OnMessage(const net::Message& outer);

  /// Blocks until every per-key async window close has shipped (no-op
  /// without an executor) and flushes the resulting frames.
  Status Quiesce();

  /// The registry the per-key locals record into.
  obs::Registry* registry() const { return registry_; }

 private:
  /// The transport the per-key locals send through: each message's payload
  /// is appended to the outbox batch of its (shard, type), under the key
  /// being served.
  class KeyTransport final : public transport::Transport {
   public:
    explicit KeyTransport(KeyedLocalNode* owner) : owner_(owner) {}
    Status Send(net::Message m) override { return owner_->Stash(m); }
    /// Per-key locals are fed by their owner, never from an inbox.
    net::Channel* Inbox(NodeId) override { return nullptr; }
    /// The keyed frame on the real transport carries the wire cost.
    transport::LinkTrafficMap LinkTraffic() const override { return {}; }
    std::map<net::MessageType, net::TrafficCounters> TrafficByType()
        const override {
      return {};
    }
    void Shutdown() override {}

   private:
    KeyedLocalNode* owner_;
  };

  /// Appends \p m to the outbox under `current_key_`.
  Status Stash(const net::Message& m);
  /// Sends the batches the call produced; fails on a message type keyed
  /// frames never carry.
  Status Flush();

  KeyedLocalNodeOptions options_;
  transport::Transport* transport_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  KeyTransport key_transport_{this};
  /// Per-key locals, indexed by key id.
  std::vector<std::unique_ptr<core::DemaLocalNode>> locals_;
  /// Cached shard of each key (hot path: one array read per stashed entry).
  std::vector<uint32_t> shard_of_;
  /// Transport-level duplicate suppression over outer keyed frames.
  net::SeqDedup dedup_;
  /// The key whose local is being called.
  net::KeyId current_key_ = 0;
  KeyedOutbox outbox_;
  /// Entries stashed since the last flush.
  size_t stashed_ = 0;
  /// First unbatchable message type stashed since the last flush.
  Status stash_error_;
  obs::Counter* c_frames_;
  obs::Counter* c_bad_frame_;
  obs::Counter* c_unknown_key_;
  obs::Counter* c_send_failures_;
};

}  // namespace dema::shard
