#pragma once

#include <cstdint>
#include <vector>

#include "net/keyed.h"
#include "obs/registry.h"
#include "transport/transport.h"

namespace dema::shard {

/// \brief The keyed batches of one protocol step: one `KeyedBatchWriter` per
/// (route, envelope type), each flushed as one frame.
///
/// A route is a destination node (root shard side) or a shard (keyed local
/// side). Frames leave in ascending (route, type) order, so the per-link
/// sequence numbers are deterministic. Writers persist across flushes and
/// keep their buffers.
class KeyedOutbox {
 public:
  /// The batch collecting \p type entries for \p route; created on first use,
  /// sending to \p dst and carrying shard index \p shard.
  net::KeyedBatchWriter* Batch(uint32_t route, net::MessageType type,
                               uint32_t shard, NodeId dst);

  /// Sends every non-empty batch as one frame from \p src. Send failures are
  /// counted into \p failures and absorbed — the per-key deadline machinery
  /// retries or degrades.
  void Flush(NodeId src, transport::Transport* transport,
             obs::Counter* failures);

 private:
  struct Route {
    uint32_t route;
    net::MessageType type;
    NodeId dst;
    net::KeyedBatchWriter batch;
  };
  /// Ascending by (route, type).
  std::vector<Route> routes_;
};

}  // namespace dema::shard
