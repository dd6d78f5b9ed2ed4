#include "sim/stream_node.h"

#include <algorithm>

namespace dema::sim {

StreamNode::StreamNode(StreamNodeOptions options,
                       transport::Transport* transport)
    : options_(options), transport_(transport) {
  if (options_.batch_size == 0) options_.batch_size = 1;
}

Status StreamNode::SendTimeAdvance(TimestampUs watermark_us, bool final_marker) {
  net::TimeAdvance advance;
  advance.watermark_us = watermark_us;
  advance.final_marker = final_marker;
  return transport_->Send(net::MakeMessage(net::MessageType::kTimeAdvance,
                                         options_.id, options_.parent, advance));
}

Status StreamNode::Ship(const std::vector<Event>& events,
                        TimestampUs watermark_us) {
  for (size_t begin = 0; begin < events.size(); begin += options_.batch_size) {
    size_t end = std::min(events.size(), begin + options_.batch_size);
    net::EventBatch batch;
    batch.sorted = false;  // raw sensor order = event-time order, not value order
    batch.codec = options_.codec;
    batch.events.assign(events.begin() + begin, events.begin() + end);
    DEMA_RETURN_NOT_OK(
        transport_->Send(net::MakeMessage(net::MessageType::kEventBatch,
                                          options_.id, options_.parent, batch)));
  }
  return SendTimeAdvance(watermark_us, /*final_marker=*/false);
}

Status StreamNode::Finish(TimestampUs final_watermark_us) {
  return SendTimeAdvance(final_watermark_us, /*final_marker=*/true);
}

}  // namespace dema::sim
