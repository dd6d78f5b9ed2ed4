#include "stream/window_manager.h"

#include <algorithm>
#include <utility>

namespace dema::stream {

bool WindowManager::OnEventSlow(const Event& e) {
  if (e.timestamp < watermark_us_) {
    ++late_events_;
    return false;
  }
  assign_scratch_.clear();
  assigner_.AssignWindows(e.timestamp, &assign_scratch_);
  for (WindowId id : assign_scratch_) {
    auto it = open_.find(id);
    if (it == open_.end()) {
      it = open_.emplace(id, std::exchange(spare_, {})).first;
      it->second.clear();
      it->second.reserve(last_closed_size_);
    }
    it->second.push_back(e);
    if (tumbling_) {
      hot_ = &it->second;
      hot_lo_us_ = std::max(assigner_.WindowStart(id), watermark_us_);
      hot_end_us_ = assigner_.WindowEnd(id);
    }
  }
  return true;
}

void WindowManager::Grow(std::vector<Event>* window, const Event& e) {
  window->push_back(e);
}

void WindowManager::AdvanceWatermarkInto(TimestampUs watermark_us,
                                         std::vector<ClosedWindow>* closed) {
  closed->clear();
  if (watermark_us <= watermark_us_) return;
  watermark_us_ = watermark_us;
  ClearHot();
  auto it = open_.begin();
  while (it != open_.end() && assigner_.WindowEnd(it->first) <= watermark_us_) {
    last_closed_size_ = it->second.size();
    closed->push_back(ClosedWindow{it->first, std::move(it->second)});
    it = open_.erase(it);
  }
}

void WindowManager::SerializeTo(net::Writer* w) const {
  w->PutI64(watermark_us_);
  w->PutU64(late_events_);
  w->PutU32(static_cast<uint32_t>(open_.size()));
  for (const auto& [id, events] : open_) {
    w->PutU64(id);
    net::EncodeEvents(w, events, net::EventCodec::kCompact);
  }
}

Status WindowManager::RestoreFrom(net::Reader* r) {
  TimestampUs watermark = 0;
  uint64_t late = 0;
  uint32_t num_windows = 0;
  DEMA_RETURN_NOT_OK(r->GetI64(&watermark));
  DEMA_RETURN_NOT_OK(r->GetU64(&late));
  DEMA_RETURN_NOT_OK(r->GetU32(&num_windows));
  open_.clear();
  ClearHot();
  watermark_us_ = watermark;
  late_events_ = late;
  for (uint32_t i = 0; i < num_windows; ++i) {
    uint64_t id = 0;
    DEMA_RETURN_NOT_OK(r->GetU64(&id));
    std::vector<Event> events;
    DEMA_RETURN_NOT_OK(net::DecodeEvents(r, &events));
    open_.emplace(static_cast<WindowId>(id), std::move(events));
  }
  return Status::OK();
}

uint64_t WindowManager::buffered_events() const {
  uint64_t n = 0;
  for (const auto& [id, events] : open_) {
    (void)id;
    n += events.size();
  }
  return n;
}

}  // namespace dema::stream
