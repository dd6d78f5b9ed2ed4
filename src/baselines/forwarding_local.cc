#include "baselines/forwarding_local.h"

#include <algorithm>

#include "stream/event_sort.h"

namespace dema::baselines {

ForwardingLocalNode::ForwardingLocalNode(ForwardingLocalNodeOptions options,
                                         transport::Transport* transport, const Clock* clock)
    : options_(options),
      transport_(transport),
      clock_(clock),
      assigner_(options.window_len_us),
      windows_(options.window_len_us) {
  if (options_.batch_size == 0) options_.batch_size = 1;
}

Status ForwardingLocalNode::OnEvent(const Event& e) {
  ++events_ingested_;
  if (options_.sort_locally) {
    windows_.OnEvent(e);
    return Status::OK();
  }
  net::WindowId wid = assigner_.AssignWindow(e.timestamp);
  if (!partial_batch_.empty() && wid != partial_batch_window_) {
    DEMA_RETURN_NOT_OK(FlushPartialBatch());
  }
  partial_batch_window_ = wid;
  partial_batch_.push_back(e);
  forwarded_counts_[wid] += 1;
  if (partial_batch_.size() >= options_.batch_size) {
    DEMA_RETURN_NOT_OK(FlushPartialBatch());
  }
  return Status::OK();
}

Status ForwardingLocalNode::FlushPartialBatch() {
  if (partial_batch_.empty()) return Status::OK();
  net::EventBatch batch;
  batch.window_id = partial_batch_window_;
  batch.sorted = false;
  batch.last_batch = false;
  batch.codec = options_.codec;
  batch.events = std::move(partial_batch_);
  partial_batch_.clear();
  return transport_->Send(net::MakeMessage(net::MessageType::kEventBatch,
                                         options_.id, options_.root_id, batch));
}

Status ForwardingLocalNode::SendChunked(net::WindowId id,
                                        const std::vector<Event>& events,
                                        bool sorted) {
  for (size_t begin = 0; begin < events.size(); begin += options_.batch_size) {
    size_t end = std::min(events.size(), begin + options_.batch_size);
    net::EventBatch batch;
    batch.window_id = id;
    batch.sorted = sorted;
    batch.last_batch = end == events.size();
    batch.codec = options_.codec;
    batch.events.assign(events.begin() + begin, events.begin() + end);
    DEMA_RETURN_NOT_OK(transport_->Send(net::MakeMessage(
        net::MessageType::kEventBatch, options_.id, options_.root_id, batch)));
  }
  return Status::OK();
}

Status ForwardingLocalNode::EmitEndedWindows(TimestampUs watermark_us) {
  net::WindowId up_to =
      assigner_.AssignWindow(std::max<TimestampUs>(0, watermark_us));
  if (options_.sort_locally) {
    auto closed = windows_.AdvanceWatermark(watermark_us);
    size_t next_closed = 0;
    while (next_window_to_end_ < up_to) {
      net::WindowId id = next_window_to_end_++;
      uint64_t size = 0;
      if (next_closed < closed.size() && closed[next_closed].id == id) {
        std::vector<Event>& events = closed[next_closed].events;
        stream::SortEvents(events);
        size = events.size();
        DEMA_RETURN_NOT_OK(SendChunked(id, events, /*sorted=*/true));
        ++next_closed;
      }
      net::WindowEnd end_msg{id, size, clock_->NowUs()};
      DEMA_RETURN_NOT_OK(transport_->Send(net::MakeMessage(
          net::MessageType::kWindowEnd, options_.id, options_.root_id, end_msg)));
    }
    return Status::OK();
  }

  while (next_window_to_end_ < up_to) {
    net::WindowId id = next_window_to_end_++;
    if (!partial_batch_.empty() && partial_batch_window_ == id) {
      DEMA_RETURN_NOT_OK(FlushPartialBatch());
    }
    uint64_t size = 0;
    auto it = forwarded_counts_.find(id);
    if (it != forwarded_counts_.end()) {
      size = it->second;
      forwarded_counts_.erase(it);
    }
    net::WindowEnd end_msg{id, size, clock_->NowUs()};
    DEMA_RETURN_NOT_OK(transport_->Send(net::MakeMessage(
        net::MessageType::kWindowEnd, options_.id, options_.root_id, end_msg)));
  }
  return Status::OK();
}

Status ForwardingLocalNode::OnWatermark(TimestampUs watermark_us) {
  return EmitEndedWindows(watermark_us);
}

Status ForwardingLocalNode::OnFinish(TimestampUs final_watermark_us) {
  return OnWatermark(final_watermark_us);
}

Status ForwardingLocalNode::OnMessage(const net::Message& msg) {
  if (msg.type == net::MessageType::kShutdown) return Status::OK();
  return Status::Internal(std::string("forwarding local got unexpected ") +
                          net::MessageTypeToString(msg.type));
}

}  // namespace dema::baselines
