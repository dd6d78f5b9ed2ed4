#include "dema/local_node.h"

#include <algorithm>
#include <chrono>

#include "dema/slice.h"

namespace dema::core {

DemaLocalNode::DemaLocalNode(DemaLocalNodeOptions options, transport::Transport* transport,
                             const Clock* clock)
    : options_(options),
      transport_(transport),
      clock_(clock),
      registry_(options_.registry),
      windows_(stream::WindowSpec{options.window_len_us, options.window_slide_us},
               options.sort_mode) {
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const std::string label = "{node=" + std::to_string(options_.id) + "}";
  c_events_ingested_ = registry_->GetCounter("local.events_ingested" + label);
  c_windows_shipped_ = registry_->GetCounter("local.windows_shipped" + label);
  c_send_failures_ = registry_->GetCounter("local.send_failures" + label);
  c_duplicates_ignored_ = registry_->GetCounter("local.duplicates_ignored" + label);
  g_retained_windows_ = registry_->GetGauge("local.retained_windows" + label);
  g_retained_events_ = registry_->GetGauge("local.retained_events" + label);
  g_retained_events_peak_ =
      registry_->GetGauge("local.retained_events_peak" + label);
  oldest_known_gamma_ = std::max<uint64_t>(2, options_.initial_gamma);
  gamma_schedule_[0] = oldest_known_gamma_;
  if (options_.executor != nullptr) {
    // Closed windows come back unsorted; the submitted task owns the sort.
    windows_.set_defer_sort(true);
  }
}

DemaLocalNode::~DemaLocalNode() {
  // Take this node's share out of the shared gauges.
  g_retained_windows_->Add(-reported_windows_);
  g_retained_events_->Add(-reported_events_);
}

void DemaLocalNode::UpdateRetainedGauges() {
  // Several locals can share one node label (a keyed node hosts one per
  // key), so each applies its change to the gauges instead of overwriting
  // the others' counts; the peak follows the summed gauge.
  const auto windows = static_cast<int64_t>(retained_.size());
  const auto events = static_cast<int64_t>(retained_event_count_);
  g_retained_windows_->Add(windows - reported_windows_);
  g_retained_events_->Add(events - reported_events_);
  reported_windows_ = windows;
  reported_events_ = events;
  const int64_t total = g_retained_events_->Value();
  if (total > g_retained_events_peak_->Value()) {
    g_retained_events_peak_->Set(total);
  }
}

uint64_t DemaLocalNode::GammaForWindow(net::WindowId id) const {
  // Latest schedule entry with effective_from <= id. Entries below the emit
  // frontier get pruned, so a historic id may predate every remaining entry;
  // answer with the oldest-known effective γ — never with a *future* entry,
  // which the root never associated with that window.
  auto it = gamma_schedule_.upper_bound(id);
  if (it == gamma_schedule_.begin()) return oldest_known_gamma_;
  --it;
  return it->second;
}

Status DemaLocalNode::OnEvent(const Event& e) {
  c_events_ingested_->Increment();
  windows_.OnEvent(e);
  return Status::OK();
}

Status DemaLocalNode::OnWatermark(TimestampUs watermark_us) {
  auto closed = windows_.AdvanceWatermark(watermark_us);
  net::WindowId up_to =
      windows_.assigner().ClosedUpTo(std::max<TimestampUs>(0, watermark_us));
  return EmitClosedWindows(std::move(closed), up_to);
}

Status DemaLocalNode::OnFinish(TimestampUs final_watermark_us) {
  DEMA_RETURN_NOT_OK(OnWatermark(final_watermark_us));
  return FlushPendingCloses();
}

Status DemaLocalNode::EmitClosedWindows(std::vector<stream::ClosedWindow> closed,
                                        net::WindowId up_to_exclusive) {
  // WindowManager yields only windows that held events; interleave empty
  // windows so the root receives a contiguous id sequence from every node.
  size_t next_closed = 0;
  while (next_window_to_emit_ < up_to_exclusive) {
    net::WindowId id = next_window_to_emit_++;
    std::vector<Event> events;
    bool is_sorted = true;
    if (next_closed < closed.size() && closed[next_closed].id == id) {
      events = std::move(closed[next_closed].sorted_events);
      is_sorted = closed[next_closed].is_sorted;
      ++next_closed;
    }
    if (options_.executor != nullptr) {
      DEMA_RETURN_NOT_OK(SubmitWindowClose(id, std::move(events), is_sorted));
    } else {
      DEMA_RETURN_NOT_OK(EmitWindow(id, std::move(events)));
    }
  }
  // Ship whatever the pool already finished, in order, without waiting.
  return DrainPreparedCloses(/*block=*/false);
}

Status DemaLocalNode::EmitWindow(net::WindowId id, std::vector<Event> sorted) {
  PreparedWindow prepared;
  prepared.id = id;
  prepared.gamma = GammaForWindow(id);
  if (!sorted.empty()) {
    DEMA_ASSIGN_OR_RETURN(prepared.slices,
                          CutIntoSlices(sorted, options_.id, prepared.gamma));
    prepared.sorted = std::move(sorted);
  }
  return ShipPrepared(std::move(prepared));
}

Status DemaLocalNode::SubmitWindowClose(net::WindowId id,
                                        std::vector<Event> events,
                                        bool is_sorted) {
  // γ resolves against the submission frontier — exactly when the inline
  // path would have resolved it — so threaded and inline runs cut the same
  // slices. Empty windows skip the pool with an already-satisfied future,
  // keeping the completion buffer strictly sequenced by window id.
  const uint64_t gamma = GammaForWindow(id);
  if (events.empty()) {
    std::promise<PreparedWindow> ready;
    PreparedWindow prepared;
    prepared.id = id;
    prepared.gamma = gamma;
    ready.set_value(std::move(prepared));
    inflight_closes_.push_back(ready.get_future());
    return Status::OK();
  }
  const NodeId node = options_.id;
  inflight_closes_.push_back(options_.executor->Submit(
      [id, gamma, node, is_sorted, events = std::move(events)]() mutable {
        PreparedWindow prepared;
        prepared.id = id;
        prepared.gamma = gamma;
        if (!is_sorted) std::sort(events.begin(), events.end());
        auto slices = CutIntoSlices(events, node, gamma);
        if (!slices.ok()) {
          prepared.status = slices.status();
          return prepared;
        }
        prepared.slices = std::move(slices).MoveValueUnsafe();
        prepared.sorted = std::move(events);
        return prepared;
      }));
  return Status::OK();
}

Status DemaLocalNode::DrainPreparedCloses(bool block) {
  while (!inflight_closes_.empty()) {
    std::future<PreparedWindow>& front = inflight_closes_.front();
    if (!block && front.wait_for(std::chrono::seconds(0)) !=
                      std::future_status::ready) {
      return Status::OK();  // front still cooking; later windows must wait
    }
    PreparedWindow prepared = front.get();
    inflight_closes_.pop_front();
    DEMA_RETURN_NOT_OK(ShipPrepared(std::move(prepared)));
  }
  return Status::OK();
}

Status DemaLocalNode::FlushPendingCloses() {
  return DrainPreparedCloses(/*block=*/true);
}

Status DemaLocalNode::ShipPrepared(PreparedWindow prepared) {
  DEMA_RETURN_NOT_OK(prepared.status);
  SynopsisBatch batch;
  batch.window_id = prepared.id;
  batch.node = options_.id;
  batch.local_window_size = prepared.sorted.size();
  batch.gamma_used =
      static_cast<uint32_t>(std::min<uint64_t>(prepared.gamma, UINT32_MAX));
  batch.close_time_us = clock_->NowUs();
  batch.slices = std::move(prepared.slices);
  if (!prepared.sorted.empty()) {
    retained_event_count_ += prepared.sorted.size();
    retained_.emplace(prepared.id,
                      RetainedWindow{prepared.gamma, std::move(prepared.sorted)});
    UpdateRetainedGauges();
  }
  DEMA_RETURN_NOT_OK(transport_->Send(net::MakeMessage(
      net::MessageType::kSynopsisBatch, options_.id, options_.root_id, batch)));
  c_windows_shipped_->Increment();
  // Old gamma schedule entries below the emitted frontier can be pruned,
  // keeping exactly one entry at-or-below it.
  auto keep = gamma_schedule_.upper_bound(next_window_to_emit_);
  if (keep != gamma_schedule_.begin()) --keep;
  gamma_schedule_.erase(gamma_schedule_.begin(), keep);
  return Status::OK();
}

Status DemaLocalNode::ResyncGamma() {
  GammaSyncRequest sync;
  sync.node = options_.id;
  return transport_->Send(net::MakeMessage(net::MessageType::kGammaSyncRequest,
                                           options_.id, options_.root_id, sync));
}

Status DemaLocalNode::OnMessage(const net::Message& msg) {
  if (dedup_.IsDuplicate(msg.src, msg.seq)) {
    // Transport-level retransmission (same sequence number): absorb it
    // before it reaches the protocol handlers. Root-driven retries use fresh
    // sequence numbers and pass through.
    c_duplicates_ignored_->Increment();
    return Status::OK();
  }
  net::Reader r(msg.payload_bytes());
  switch (msg.type) {
    case net::MessageType::kCandidateRequest: {
      DEMA_ASSIGN_OR_RETURN(auto req, CandidateRequest::Deserialize(&r));
      return HandleCandidateRequest(req);
    }
    case net::MessageType::kGammaUpdate: {
      DEMA_ASSIGN_OR_RETURN(auto update, GammaUpdate::Deserialize(&r));
      return HandleGammaUpdate(update);
    }
    case net::MessageType::kShutdown:
      return Status::OK();
    default:
      return Status::Internal(std::string("local node got unexpected ") +
                              net::MessageTypeToString(msg.type));
  }
}

Status DemaLocalNode::HandleCandidateRequest(const CandidateRequest& req) {
  if (req.slice_indices.empty()) {
    // Release: the root needs nothing (more) from this window.
    auto rit = retained_.find(req.window_id);
    if (rit != retained_.end()) {
      retained_event_count_ -= rit->second.sorted.size();
      retained_.erase(rit);
      UpdateRetainedGauges();
    }
    served_.erase(req.window_id);
    return Status::OK();
  }
  auto it = retained_.find(req.window_id);
  bool from_served = false;
  if (it == retained_.end()) {
    // The root retries a request when a reply goes missing in flight; an
    // already-served window sits in the bounded served ring for exactly this
    // case and is served again without being re-retained.
    it = served_.find(req.window_id);
    from_served = true;
    if (it == served_.end()) {
      if (options_.tolerate_duplicates && req.window_id < next_window_to_emit_) {
        return Status::OK();  // retransmitted request for a released window
      }
      return Status::NotFound("candidate request for unknown window " +
                              std::to_string(req.window_id));
    }
  }
  const std::vector<Event>& sorted = it->second.sorted;
  uint64_t gamma = it->second.gamma;

  CandidateReply reply;
  reply.window_id = req.window_id;
  reply.node = options_.id;
  reply.codec = options_.reply_codec;
  // Requested slices are ascending, disjoint index ranges of the sorted
  // window, so appending them in order keeps the reply sorted.
  for (uint32_t index : req.slice_indices) {
    auto [begin, end] = SliceEventRange(sorted.size(), gamma, index);
    if (begin >= end) {
      return Status::OutOfRange("slice index " + std::to_string(index) +
                                " outside window " + std::to_string(req.window_id));
    }
    reply.events.insert(reply.events.end(), sorted.begin() + begin,
                        sorted.begin() + end);
  }
  // Release the window only once the reply is actually on the wire: a
  // transient send failure must not lose the retained events, or the root
  // can never complete this window (the retransmitted request would hit the
  // released-window path above).
  Status sent = transport_->Send(net::MakeMessage(net::MessageType::kCandidateReply,
                                                  options_.id, options_.root_id, reply));
  if (!sent.ok()) {
    c_send_failures_->Increment();
    return sent;
  }
  if (!from_served) {
    // Move to the served ring (oldest evicted) so a retried request after a
    // lost reply finds the events again instead of the released-window path.
    retained_event_count_ -= it->second.sorted.size();
    if (options_.served_window_cap > 0) {
      served_.emplace(req.window_id, std::move(it->second));
      while (served_.size() > options_.served_window_cap) {
        served_.erase(served_.begin());
      }
    }
    retained_.erase(it);
    UpdateRetainedGauges();
  }
  return Status::OK();
}

namespace {
/// Checkpoint framing: magic + version guard against foreign blobs.
/// Version 2 added the oldest-known effective γ after the schedule entries.
constexpr uint32_t kCheckpointMagic = 0xDE3AC4B1;
constexpr uint8_t kCheckpointVersion = 2;
}  // namespace

void DemaLocalNode::Checkpoint(net::Writer* w) const {
  w->PutU32(kCheckpointMagic);
  w->PutU8(kCheckpointVersion);
  w->PutU32(options_.id);
  w->PutU64(next_window_to_emit_);
  w->PutU64(c_events_ingested_->Value());
  w->PutU32(static_cast<uint32_t>(gamma_schedule_.size()));
  for (const auto& [from, gamma] : gamma_schedule_) {
    w->PutU64(from);
    w->PutU64(gamma);
  }
  w->PutU64(oldest_known_gamma_);
  w->PutU32(static_cast<uint32_t>(retained_.size()));
  for (const auto& [id, window] : retained_) {
    w->PutU64(id);
    w->PutU64(window.gamma);
    net::EncodeEvents(w, window.sorted, net::EventCodec::kCompact,
                      /*sorted_hint=*/true);
  }
  windows_.SerializeTo(w);
}

Status DemaLocalNode::Restore(net::Reader* r) {
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
  DEMA_RETURN_NOT_OK(r->GetU64(&next_window_to_emit_));
  uint64_t events_ingested = 0;
  DEMA_RETURN_NOT_OK(r->GetU64(&events_ingested));
  if (events_ingested > c_events_ingested_->Value()) {
    c_events_ingested_->Increment(events_ingested - c_events_ingested_->Value());
  }
  uint32_t schedule_entries = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&schedule_entries));
  gamma_schedule_.clear();
  for (uint32_t i = 0; i < schedule_entries; ++i) {
    uint64_t from = 0, gamma = 0;
    DEMA_RETURN_NOT_OK(r->GetU64(&from));
    DEMA_RETURN_NOT_OK(r->GetU64(&gamma));
    if (gamma < 2) return Status::SerializationError("gamma below 2");
    gamma_schedule_[from] = gamma;
  }
  if (gamma_schedule_.empty()) {
    return Status::SerializationError("checkpoint without gamma schedule");
  }
  DEMA_RETURN_NOT_OK(r->GetU64(&oldest_known_gamma_));
  if (oldest_known_gamma_ < 2) {
    return Status::SerializationError("oldest-known gamma below 2");
  }
  uint32_t retained_count = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&retained_count));
  retained_.clear();
  retained_event_count_ = 0;
  for (uint32_t i = 0; i < retained_count; ++i) {
    uint64_t id = 0;
    RetainedWindow window;
    DEMA_RETURN_NOT_OK(r->GetU64(&id));
    DEMA_RETURN_NOT_OK(r->GetU64(&window.gamma));
    DEMA_RETURN_NOT_OK(net::DecodeEvents(r, &window.sorted));
    retained_event_count_ += window.sorted.size();
    retained_.emplace(static_cast<net::WindowId>(id), std::move(window));
  }
  UpdateRetainedGauges();
  return windows_.RestoreFrom(r);
}

Status DemaLocalNode::HandleGammaUpdate(const GammaUpdate& update) {
  // Never rewrite history: the schedule only changes for windows this node
  // has not shipped yet.
  net::WindowId from = std::max(update.effective_from, next_window_to_emit_);
  gamma_schedule_[from] = std::max<uint64_t>(2, update.gamma);
  return Status::OK();
}

}  // namespace dema::core
