#include "dema/local_core.h"

#include <algorithm>
#include <span>

#include "dema/adaptive_gamma.h"
#include "dema/slice.h"
#include "stream/event_sort.h"

namespace dema::core {

namespace {

/// The first kept window of \p s whose id is not below \p id.
auto KeptAt(LocalStream* s, net::WindowId id) {
  return std::lower_bound(
      s->kept.begin(), s->kept.end(), id,
      [](const KeptWindow& w, net::WindowId x) { return w.id < x; });
}

/// The first entry of γ \p schedule effective after window \p id.
auto ScheduleAfter(auto& schedule, net::WindowId id) {
  return std::upper_bound(
      schedule.begin(), schedule.end(), id,
      [](net::WindowId x, const auto& entry) { return x < entry.first; });
}

/// Sets the γ schedule entry of \p s effective from window \p from.
void SetGamma(LocalStream* s, net::WindowId from, uint64_t gamma) {
  auto it = ScheduleAfter(s->gamma_schedule, from);
  if (it != s->gamma_schedule.begin() && (it - 1)->first == from) {
    (it - 1)->second = gamma;
  } else {
    s->gamma_schedule.insert(it, {from, gamma});
  }
}

/// Checkpoint framing: magic + version guard against foreign blobs.
/// Version 2 added the oldest-known effective γ after the schedule entries.
constexpr uint32_t kCheckpointMagic = 0xDE3AC4B1;
constexpr uint8_t kCheckpointVersion = 2;

}  // namespace

LocalCore::LocalCore(DemaLocalNodeOptions options, const Clock* clock)
    : options_(options), clock_(clock), registry_(options_.registry) {
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const std::string label = "{node=" + std::to_string(options_.id) + "}";
  c_events_ingested_ = registry_->GetCounter("local.events_ingested" + label);
  c_late_events_ = registry_->GetCounter("local.late_events" + label);
  c_rejected_values_ = registry_->GetCounter("local.rejected_values" + label);
  c_windows_shipped_ = registry_->GetCounter("local.windows_shipped" + label);
  c_send_failures_ = registry_->GetCounter("local.send_failures" + label);
  c_duplicates_ignored_ = registry_->GetCounter("local.duplicates_ignored" + label);
  g_retained_windows_ = registry_->GetGauge("local.retained_windows" + label);
  g_retained_events_ = registry_->GetGauge("local.retained_events" + label);
  g_retained_events_peak_ =
      registry_->GetGauge("local.retained_events_peak" + label);
  reply_.node = options_.id;
  reply_.codec = options_.reply_codec;
}

LocalStream::LocalStream(const DemaLocalNodeOptions& o)
    : windows(stream::WindowSpec{o.window_len_us, o.window_slide_us}),
      gamma_schedule{{0, std::max<uint64_t>(2, o.initial_gamma)}},
      oldest_known_gamma(std::max<uint64_t>(2, o.initial_gamma)) {}

void LocalCore::AddRetained(int64_t windows, int64_t events) {
  retained_windows_ += windows;
  retained_events_ += events;
  g_retained_windows_->Set(retained_windows_);
  g_retained_events_->Set(retained_events_);
  if (retained_events_ > g_retained_events_peak_->Value()) {
    g_retained_events_peak_->Set(retained_events_);
  }
}

uint64_t LocalCore::GammaForWindow(const LocalStream& s,
                                   net::WindowId id) const {
  // Latest schedule entry with effective_from <= id. Entries below the emit
  // frontier get pruned, so a historic id may predate every remaining entry;
  // answer with the oldest-known effective γ — never with a *future* entry,
  // which the root never associated with that window.
  auto it = ScheduleAfter(s.gamma_schedule, id);
  if (it == s.gamma_schedule.begin()) return s.oldest_known_gamma;
  return (it - 1)->second;
}

Status LocalCore::OnWatermark(LocalStream* s, TimestampUs watermark_us,
                              LocalSink* sink) {
  std::vector<stream::ClosedWindow> closed =
      s->windows.AdvanceWatermark(watermark_us);
  const net::WindowId up_to_exclusive =
      s->windows.assigner().ClosedUpTo(std::max<TimestampUs>(0, watermark_us));
  // WindowManager yields only windows that held events; interleave empty
  // windows so the root receives a contiguous id sequence from every node.
  size_t next_closed = 0;
  while (s->next_window_to_emit < up_to_exclusive) {
    net::WindowId id = s->next_window_to_emit++;
    std::vector<Event> events;
    if (next_closed < closed.size() && closed[next_closed].id == id) {
      events = std::move(closed[next_closed].events);
      ++next_closed;
    }
    DEMA_RETURN_NOT_OK(
        ShipWindow(s, id, GammaForWindow(*s, id), std::move(events), sink));
  }
  return Status::OK();
}

Status LocalCore::ShipWindow(LocalStream* s, net::WindowId id, uint64_t gamma,
                             std::vector<Event> events, LocalSink* sink) {
  SynopsisBatch batch;
  if (!events.empty()) {
    // A window the tiny-window rule covers is cut at γ = 2.
    if (CutAtGammaTwo(events.size(), gamma, options_.reply_codec)) gamma = 2;
    stream::OrderSlices(&events, gamma);
    DEMA_ASSIGN_OR_RETURN(batch.slices,
                          CutIntoSlices(events, options_.id, gamma));
  }
  batch.window_id = id;
  batch.node = options_.id;
  batch.local_window_size = events.size();
  batch.gamma_used =
      static_cast<uint32_t>(std::min<uint64_t>(gamma, UINT32_MAX));
  batch.close_time_us = clock_->NowUs();
  batch.codec = options_.reply_codec;
  // The root reads every slice of ≤ 2 events from its synopsis, so only a
  // window holding a larger slice can ever be asked for its events.
  if (Retained(batch.slices)) {
    AddRetained(1, static_cast<int64_t>(events.size()));
    s->kept.insert(KeptAt(s, id),
                   KeptWindow{id, gamma, false, std::move(events)});
  }
  DEMA_RETURN_NOT_OK(sink->SendSynopsis(batch));
  c_windows_shipped_->Increment();
  // Old gamma schedule entries below the emitted frontier can be pruned,
  // keeping exactly one entry at-or-below it.
  auto keep = ScheduleAfter(s->gamma_schedule, s->next_window_to_emit);
  if (keep != s->gamma_schedule.begin()) --keep;
  s->gamma_schedule.erase(s->gamma_schedule.begin(), keep);
  return Status::OK();
}

Status LocalCore::ResyncGamma(LocalSink* sink) const {
  return sink->SendGammaSync(GammaSyncRequest{options_.id});
}

Status LocalCore::OnPayload(LocalStream* s, net::MessageType type,
                            net::ByteSpan payload, LocalSink* sink) {
  net::Reader r(payload);
  switch (type) {
    case net::MessageType::kCandidateRequest: {
      DEMA_ASSIGN_OR_RETURN(auto req, CandidateRequest::Deserialize(&r));
      return HandleCandidateRequest(s, req, sink);
    }
    case net::MessageType::kGammaUpdate: {
      DEMA_ASSIGN_OR_RETURN(auto update, GammaUpdate::Deserialize(&r));
      // Never rewrite history: the schedule only changes for windows this
      // stream has not shipped yet.
      SetGamma(s, std::max(update.effective_from, s->next_window_to_emit),
               std::max<uint64_t>(2, update.gamma));
      return Status::OK();
    }
    case net::MessageType::kShutdown:
      return Status::OK();
    default:
      return Status::Internal(std::string("local node got unexpected ") +
                              net::MessageTypeToString(type));
  }
}

Status LocalCore::HandleCandidateRequest(LocalStream* s,
                                         const CandidateRequest& req,
                                         LocalSink* sink) {
  auto it = KeptAt(s, req.window_id);
  if (it == s->kept.end() || it->id != req.window_id) {
    // Neither retained nor in the served ring (which keeps an already-served
    // window for a root retry after a lost reply): a request below the emit
    // frontier is a retransmission for a released window.
    if (req.slice_indices.empty() || req.window_id < s->next_window_to_emit) {
      return Status::OK();
    }
    return Status::NotFound("candidate request for unknown window " +
                            std::to_string(req.window_id));
  }
  const auto size = static_cast<int64_t>(it->events.size());
  if (req.slice_indices.empty()) {
    // Release: the root needs nothing (more) from this window.
    if (!it->served) AddRetained(-1, -size);
    s->kept.erase(it);
    return Status::OK();
  }
  reply_.window_id = req.window_id;
  reply_.events.clear();
  // Requested slices are ascending, disjoint index ranges of the
  // slice-ordered window, each sorted in place when served (a re-serve finds
  // it sorted), so appending them in order keeps the reply sorted.
  for (uint32_t index : req.slice_indices) {
    auto [begin, end] = SliceEventRange(it->events.size(), it->gamma, index);
    if (begin >= end) {
      return Status::OutOfRange("slice index " + std::to_string(index) +
                                " outside window " + std::to_string(req.window_id));
    }
    const std::span<Event> slice(it->events.data() + begin, end - begin);
    stream::SortServedSlice(slice);
    reply_.events.insert(reply_.events.end(), slice.begin(), slice.end());
  }
  // Release the window only once the reply is actually on the wire: a
  // transient send failure must not lose the retained events, or the root
  // can never complete this window (the retransmitted request would hit the
  // released-window path above).
  Status sent = sink->SendReply(reply_);
  if (!sent.ok()) {
    c_send_failures_->Increment();
    return sent;
  }
  if (it->served) return Status::OK();  // re-served, never re-retained
  // Move to the served ring (oldest id evicted) so a retried request after a
  // lost reply finds the events again instead of the released-window path.
  it->served = true;
  AddRetained(-1, -size);
  auto served = [](const KeptWindow& w) { return w.served; };
  if (static_cast<size_t>(std::count_if(s->kept.begin(), s->kept.end(),
                                        served)) > kServedWindowCap) {
    s->kept.erase(std::find_if(s->kept.begin(), s->kept.end(), served));
  }
  return Status::OK();
}

void LocalCore::Checkpoint(const LocalStream& s, net::Writer* w) const {
  w->PutU32(kCheckpointMagic);
  w->PutU8(kCheckpointVersion);
  w->PutU32(options_.id);
  w->PutU64(s.next_window_to_emit);
  w->PutU64(c_events_ingested_->Value());
  w->PutU32(static_cast<uint32_t>(s.gamma_schedule.size()));
  for (const auto& [from, gamma] : s.gamma_schedule) {
    w->PutU64(from);
    w->PutU64(gamma);
  }
  w->PutU64(s.oldest_known_gamma);
  w->PutU32(static_cast<uint32_t>(s.retained_windows()));
  std::vector<Event> sorted;
  for (const KeptWindow& window : s.kept) {
    if (window.served) continue;
    w->PutU64(window.id);
    w->PutU64(window.gamma);
    // Checkpoints hold fully sorted windows, which `Restore` keeps as they
    // are: a sorted window is also slice-ordered.
    sorted = window.events;
    stream::SortEvents(sorted);
    net::EncodeEvents(w, sorted, net::EventCodec::kCompact,
                      /*sorted_hint=*/true);
  }
  s.windows.SerializeTo(w);
}

Status LocalCore::Restore(LocalStream* s, net::Reader* r) {
  uint32_t magic = 0;
  uint8_t version = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&magic));
  if (magic != kCheckpointMagic) {
    return Status::SerializationError("not a Dema local-node checkpoint");
  }
  DEMA_RETURN_NOT_OK(r->GetU8(&version));
  if (version != kCheckpointVersion) {
    return Status::SerializationError("unsupported checkpoint version " +
                                      std::to_string(version));
  }
  uint32_t node_id = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&node_id));
  if (node_id != options_.id) {
    return Status::InvalidArgument("checkpoint belongs to node " +
                                   std::to_string(node_id) + ", this is node " +
                                   std::to_string(options_.id));
  }
  DEMA_RETURN_NOT_OK(r->GetU64(&s->next_window_to_emit));
  uint64_t events_ingested = 0;
  DEMA_RETURN_NOT_OK(r->GetU64(&events_ingested));
  if (events_ingested > c_events_ingested_->Value()) {
    c_events_ingested_->Increment(events_ingested - c_events_ingested_->Value());
  }
  uint32_t schedule_entries = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&schedule_entries));
  s->gamma_schedule.clear();
  for (uint32_t i = 0; i < schedule_entries; ++i) {
    uint64_t from = 0, gamma = 0;
    DEMA_RETURN_NOT_OK(r->GetU64(&from));
    DEMA_RETURN_NOT_OK(r->GetU64(&gamma));
    if (gamma < 2) return Status::SerializationError("gamma below 2");
    SetGamma(s, from, gamma);
  }
  if (s->gamma_schedule.empty()) {
    return Status::SerializationError("checkpoint without gamma schedule");
  }
  DEMA_RETURN_NOT_OK(r->GetU64(&s->oldest_known_gamma));
  if (s->oldest_known_gamma < 2) {
    return Status::SerializationError("oldest-known gamma below 2");
  }
  uint32_t retained_count = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&retained_count));
  for (const KeptWindow& window : s->kept) {
    if (!window.served) {
      AddRetained(-1, -static_cast<int64_t>(window.events.size()));
    }
  }
  s->kept.clear();
  for (uint32_t i = 0; i < retained_count; ++i) {
    KeptWindow window;
    DEMA_RETURN_NOT_OK(r->GetU64(&window.id));
    DEMA_RETURN_NOT_OK(r->GetU64(&window.gamma));
    DEMA_RETURN_NOT_OK(net::DecodeEvents(r, &window.events));
    AddRetained(1, static_cast<int64_t>(window.events.size()));
    s->kept.insert(KeptAt(s, window.id), std::move(window));
  }
  return s->windows.RestoreFrom(r);
}

}  // namespace dema::core
