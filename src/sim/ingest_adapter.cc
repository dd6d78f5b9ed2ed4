#include "sim/ingest_adapter.h"

#include <algorithm>
#include <limits>
#include <string>

#include "net/serializer.h"

namespace dema::sim {

IngestAdapter::IngestAdapter(std::unique_ptr<LocalNodeLogic> inner,
                             std::vector<NodeId> children)
    : inner_(std::move(inner)) {
  for (NodeId child : children) children_[child];
}

TimestampUs IngestAdapter::MinChildWatermark() const {
  TimestampUs min_wm = std::numeric_limits<TimestampUs>::max();
  for (const auto& [id, child] : children_) {
    (void)id;
    min_wm = std::min(min_wm, child.watermark);
  }
  return children_.empty() ? 0 : min_wm;
}

Status IngestAdapter::OnMessage(const net::Message& msg) {
  const bool is_batch = msg.type == net::MessageType::kEventBatch;
  if (!is_batch && msg.type != net::MessageType::kTimeAdvance) {
    return inner_->OnMessage(msg);
  }
  auto it = children_.find(msg.src);
  if (it == children_.end()) {
    return Status::InvalidArgument(
        std::string(is_batch ? "event batch" : "time advance") +
        " from unregistered sensor " + std::to_string(msg.src));
  }
  Child& child = it->second;
  if (msg.seq == 0) return Apply(&child, msg);
  if (msg.seq < child.next_seq) return Status::OK();  // duplicate
  if (msg.seq > child.next_seq) {
    child.held.emplace(msg.seq, msg);
    return Status::OK();
  }
  DEMA_RETURN_NOT_OK(Apply(&child, msg));
  ++child.next_seq;
  for (auto held = child.held.begin();
       held != child.held.end() && held->first == child.next_seq;
       held = child.held.erase(held)) {
    DEMA_RETURN_NOT_OK(Apply(&child, held->second));
    ++child.next_seq;
  }
  return Status::OK();
}

Status IngestAdapter::Apply(Child* child, const net::Message& msg) {
  net::Reader r(msg.payload_bytes());
  if (msg.type == net::MessageType::kEventBatch) {
    DEMA_ASSIGN_OR_RETURN(auto batch, net::EventBatch::Deserialize(&r));
    for (const Event& e : batch.events) {
      DEMA_RETURN_NOT_OK(inner_->OnEvent(e));
    }
    events_ingested_ += batch.events.size();
    return Status::OK();
  }
  DEMA_ASSIGN_OR_RETURN(auto advance, net::TimeAdvance::Deserialize(&r));
  child->watermark = std::max(child->watermark, advance.watermark_us);
  // The edge's clock only moves when its slowest sensor moves.
  return inner_->OnWatermark(MinChildWatermark());
}

Status IngestAdapter::OnFinish(TimestampUs final_watermark_us) {
  return inner_->OnFinish(final_watermark_us);
}

}  // namespace dema::sim
