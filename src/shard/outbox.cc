#include "shard/outbox.h"

#include <algorithm>

namespace dema::shard {

net::KeyedBatchWriter* KeyedOutbox::Batch(uint32_t route,
                                          net::MessageType type,
                                          uint32_t shard, NodeId dst) {
  auto it = std::lower_bound(
      routes_.begin(), routes_.end(), std::make_pair(route, type),
      [](const Route& r, const std::pair<uint32_t, net::MessageType>& k) {
        return std::make_pair(r.route, r.type) < k;
      });
  if (it == routes_.end() || it->route != route || it->type != type) {
    it = routes_.insert(it, Route{route, type, dst, net::KeyedBatchWriter(shard)});
  }
  return &it->batch;
}

void KeyedOutbox::Flush(NodeId src, transport::Transport* transport,
                        obs::Counter* failures) {
  for (Route& r : routes_) {
    if (r.batch.size() == 0) continue;
    Status sent = transport->Send(r.batch.Finish(r.type, src, r.dst));
    if (!sent.ok()) failures->Increment();
  }
}

}  // namespace dema::shard
