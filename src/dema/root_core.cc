#include "dema/root_core.h"

#include <algorithm>
#include <chrono>
#include <span>

#include "dema/validate.h"
#include "stream/merge.h"
#include "stream/quantile.h"

namespace dema::core {

namespace {

/// The first pending window of \p s whose id is not below \p id.
auto PendingAt(RootStream* s, net::WindowId id) {
  return std::lower_bound(
      s->pending.begin(), s->pending.end(), id,
      [](const std::unique_ptr<RootPendingWindow>& w, net::WindowId x) {
        return w->id < x;
      });
}

/// Moves \p w's synopsis-served run in beside its reply runs for selection.
void AdoptSynopsisRun(RootPendingWindow* w) {
  if (w->synopsis_run.empty()) return;
  w->reply_runs.push_back(std::move(w->synopsis_run));
  w->synopsis_run.clear();
}

}  // namespace

Status RootSink::SendSynopsis(NodeId, const SynopsisBatch&) {
  return Status::Internal("root sink has no parent");
}

Status RootSink::SendReply(NodeId, const CandidateReply&) {
  return Status::Internal("root sink has no parent");
}

void RootPendingWindow::Reset(net::WindowId window, size_t num_locals) {
  id = window;
  slices.clear();
  local_flags.assign(num_locals, 0);
  synopses_received = 0;
  global_size = 0;
  last_close_time_us = 0;
  gamma_used = 0;
  requests_sent = false;
  expected_replies = 0;
  reply_runs.clear();
  synopsis_run.clear();
  trace = obs::WindowTrace{};
  trace.window_id = window;
  retries = 0;
  next_check_tick = 0;
  excluded_events = 0;
}

RootCore::RootCore(DemaRootNodeOptions options, const Clock* clock)
    : options_(std::move(options)),
      clock_(clock),
      registry_(options_.registry),
      tracer_(options_.tracer),
      initial_gamma_(options_.initial_gamma, options_.gamma_options) {
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const std::string label = options_.instrument_label.empty()
                                ? std::string()
                                : "{" + options_.instrument_label + "}";
  c_windows_ = registry_->GetCounter("dema.windows" + label);
  c_synopsis_slices_ = registry_->GetCounter("dema.synopsis_slices" + label);
  c_candidate_slices_ = registry_->GetCounter("dema.candidate_slices" + label);
  c_candidate_events_ = registry_->GetCounter("dema.candidate_events" + label);
  c_gamma_updates_sent_ = registry_->GetCounter("dema.gamma_updates_sent" + label);
  c_duplicates_ignored_ = registry_->GetCounter("dema.duplicates_ignored" + label);
  c_rejected_ = registry_->GetCounter("dema.rejected" + label);
  if (!options_.parent) {
    // A relay neither cuts, selects nor emits, and runs without recovery:
    // these stay null there, and so unexported.
    c_global_events_ = registry_->GetCounter("dema.global_events" + label);
    c_synopsis_served_slices_ =
        registry_->GetCounter("dema.synopsis_served_slices" + label);
    c_class_separate_ = registry_->GetCounter("dema.classes.separate" + label);
    c_class_compound_ = registry_->GetCounter("dema.classes.compound" + label);
    c_class_cover_ = registry_->GetCounter("dema.classes.cover" + label);
    c_clock_skew_windows_ =
        registry_->GetCounter("dema.clock_skew_windows" + label);
    c_degraded_windows_ = registry_->GetCounter("dema.degraded_windows" + label);
    c_retries_ = registry_->GetCounter("root.retries" + label);
    c_send_failures_ = registry_->GetCounter("root.send_failures" + label);
    c_quarantined_ = registry_->GetCounter("dema.quarantined" + label);
    c_readmitted_ = registry_->GetCounter("dema.readmitted" + label);
    h_select_us_ = registry_->GetHistogram("root.select_us" + label);
  }

  // Fail fast on option errors: a bad quantile must not poison a running
  // cluster per-window after synopses already shipped.
  if (options_.quantiles.empty()) {
    init_status_ = Status::InvalidArgument("no quantiles configured");
  }
  for (double q : options_.quantiles) {
    if (!(q > 0.0) || q > 1.0) {
      init_status_ = Status::InvalidArgument(
          "quantile " + std::to_string(q) + " outside (0, 1]");
      break;
    }
  }
  if (init_status_.ok() && options_.use_naive_selection &&
      options_.quantiles.size() != 1) {
    init_status_ =
        Status::InvalidArgument("naive selection supports exactly one quantile");
  }
  if (options_.parent && (options_.recovery.deadline_ticks > 0 ||
                          options_.recovery.quarantine_strikes > 0)) {
    init_status_ = Status::InvalidArgument("a relay runs without recovery");
  }

  local_index_.reserve(options_.locals.size());
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    local_index_.emplace_back(options_.locals[i], i);
  }
  std::sort(local_index_.begin(), local_index_.end());
}

RootStream RootCore::NewStream() const {
  RootStream s(initial_gamma_);
  const size_t n = options_.locals.size();
  if (options_.recovery.quarantine_strikes > 0) {
    s.health.assign(n, LocalReputation{});
  }
  if (options_.per_node_gamma) {
    s.node_gamma.assign(n, initial_gamma_);
    s.node_last_broadcast.assign(n, initial_gamma_.current());
  }
  return s;
}

int64_t RootCore::LocalIndex(NodeId node) const {
  auto it = std::lower_bound(
      local_index_.begin(), local_index_.end(), node,
      [](const std::pair<NodeId, size_t>& e, NodeId id) { return e.first < id; });
  if (it == local_index_.end() || it->first != node) return -1;
  return static_cast<int64_t>(it->second);
}

void RootCore::GroupRequests(const PendingWindow& w) {
  // Indices within one local ascend: synopsis batches list a node's slices
  // in order and the candidate list preserves input order.
  const size_t n = options_.locals.size();
  request_begin_.assign(n + 1, 0);
  for (size_t flat : w.cut.candidates) {
    if (KnownFromSynopsis(w.slices[flat])) continue;
    const int64_t idx = LocalIndex(w.slices[flat].node);
    if (idx >= 0) ++request_begin_[static_cast<size_t>(idx) + 1];
  }
  for (size_t i = 0; i < n; ++i) request_begin_[i + 1] += request_begin_[i];
  request_slices_.resize(request_begin_[n]);
  local_candidates_.assign(request_begin_.begin(), request_begin_.end() - 1);
  for (size_t flat : w.cut.candidates) {
    if (KnownFromSynopsis(w.slices[flat])) continue;
    const int64_t idx = LocalIndex(w.slices[flat].node);
    if (idx < 0) continue;
    request_slices_[local_candidates_[static_cast<size_t>(idx)]++] =
        w.slices[flat].index;
  }
}

const CandidateRequest& RootCore::RequestFor(const PendingWindow& w,
                                             size_t i) {
  request_.window_id = w.id;
  request_.slice_indices.assign(
      request_slices_.begin() + static_cast<ptrdiff_t>(request_begin_[i]),
      request_slices_.begin() + static_cast<ptrdiff_t>(request_begin_[i + 1]));
  return request_;
}

uint64_t RootCore::NowStamp() const {
  return static_cast<uint64_t>(std::max<TimestampUs>(0, clock_->NowUs()));
}

RootPendingWindow* RootCore::FindPending(RootStream* s, net::WindowId id) const {
  auto it = PendingAt(s, id);
  return it != s->pending.end() && (*it)->id == id ? it->get() : nullptr;
}

RootPendingWindow* RootCore::GetOrCreatePending(RootStream* s,
                                                net::WindowId id) {
  auto it = PendingAt(s, id);
  if (it != s->pending.end() && (*it)->id == id) return it->get();
  std::unique_ptr<PendingWindow> w;
  if (pool_.empty()) {
    w = std::make_unique<PendingWindow>();
  } else {
    w = std::move(pool_.back());
    pool_.pop_back();
  }
  w->Reset(id, options_.locals.size());
  return s->pending.insert(it, std::move(w))->get();
}

std::unique_ptr<RootPendingWindow> RootCore::TakePending(RootStream* s,
                                                         net::WindowId id) {
  auto it = PendingAt(s, id);
  std::unique_ptr<PendingWindow> w = std::move(*it);
  s->pending.erase(it);
  return w;
}

void RootCore::Recycle(std::unique_ptr<PendingWindow> w) {
  for (std::vector<Event>& run : w->reply_runs) {
    run_pool_.push_back(std::move(run));
  }
  w->reply_runs.clear();
  pool_.push_back(std::move(w));
}

void RootCore::MarkEmitted(RootStream* s, net::WindowId id) {
  auto& above = s->emitted_above;
  if (id == s->emitted_below) {
    ++s->emitted_below;
    size_t drained = 0;
    while (drained < above.size() && above[drained] == s->emitted_below) {
      ++drained;
      ++s->emitted_below;
    }
    above.erase(above.begin(), above.begin() + static_cast<ptrdiff_t>(drained));
  } else if (id > s->emitted_below) {
    auto it = std::lower_bound(above.begin(), above.end(), id);
    if (it == above.end() || *it != id) above.insert(it, id);
  }
  if (options_.recovery.quarantine_strikes > 0) {
    // Quarantine time is measured in emitted windows (the only clock every
    // configuration shares); the last one opens probation.
    for (LocalReputation& h : s->health) {
      if (h.state == LocalReputation::State::kQuarantined &&
          h.probation_windows_left > 0 && --h.probation_windows_left == 0) {
        h.state = LocalReputation::State::kProbation;
        h.strikes = 0;
      }
    }
  }
}

bool RootCore::IsEmitted(const RootStream& s, net::WindowId id) const {
  return id < s.emitted_below ||
         std::binary_search(s.emitted_above.begin(), s.emitted_above.end(), id);
}

Status RootCore::RejectPayload(RootStream* s, NodeId src, const char* reason,
                               RootSink* sink) {
  c_rejected_->Increment();
  std::string by_reason = std::string("dema.rejected{reason=") + reason;
  if (!options_.instrument_label.empty()) {
    by_reason += "," + options_.instrument_label;
  }
  registry_->GetCounter(by_reason + "}")->Increment();
  if (options_.recovery.quarantine_strikes == 0) return Status::OK();
  const int64_t idx = LocalIndex(src);
  if (idx < 0) return Status::OK();
  return AddStrike(s, static_cast<size_t>(idx), sink);
}

Status RootCore::AddStrike(RootStream* s, size_t idx, RootSink* sink) {
  LocalReputation& h = s->health[idx];
  switch (h.state) {
    case LocalReputation::State::kQuarantined:
      // Already excluded; further rejections carry no new information.
      return Status::OK();
    case LocalReputation::State::kProbation:
      // One strike during probation re-quarantines immediately — the local
      // has not earned back the benefit of a fresh strike budget.
      return QuarantineLocal(s, idx, sink);
    case LocalReputation::State::kHealthy:
      if (++h.strikes >= options_.recovery.quarantine_strikes) {
        return QuarantineLocal(s, idx, sink);
      }
      return Status::OK();
  }
  return Status::OK();
}

bool RootCore::IsQuarantined(const RootStream& s, size_t idx) const {
  return options_.recovery.quarantine_strikes > 0 &&
         s.health[idx].state == LocalReputation::State::kQuarantined;
}

bool RootCore::SynopsesComplete(const RootStream& s,
                                const PendingWindow& w) const {
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (!w.Has(i, PendingWindow::kSynopsis) && !IsQuarantined(s, i)) return false;
  }
  return true;
}

Status RootCore::MaybeRunIdentification(RootStream* s, PendingWindow* w,
                                        RootSink* sink) {
  if (w->requests_sent) return Status::OK();
  if (!SynopsesComplete(*s, *w)) return Status::OK();
  // Charge an excluded-size estimate for every quarantined local the window
  // never heard from: the emitted result is exact over the contributors, and
  // the estimate bounds its rank error against the true global window.
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (IsQuarantined(*s, i) && !w->Has(i, PendingWindow::kSynopsis) &&
        !w->Has(i, PendingWindow::kExcluded)) {
      w->Set(i, PendingWindow::kExcluded);
      const LocalReputation& h = s->health[i];
      w->excluded_events +=
          h.last_known_size > 0 ? h.last_known_size : h.last_claimed_size;
    }
  }
  return RunIdentification(s, w, sink);
}

Status RootCore::QuarantineLocal(RootStream* s, size_t idx, RootSink* sink) {
  LocalReputation& h = s->health[idx];
  h.state = LocalReputation::State::kQuarantined;
  h.strikes = 0;
  h.probation_windows_left =
      std::max<uint64_t>(options_.recovery.probation_windows, 1);
  h.clean_windows_needed =
      std::max<uint32_t>(options_.recovery.probation_clean_windows, 1);
  c_quarantined_->Increment();
  const NodeId node = options_.locals[idx];

  // Sweep pending windows: identification and completion must stop waiting
  // for the excluded local right now, or every in-flight window stalls into
  // its deadline. Ids are snapshotted first — completing or degrading a
  // window removes it from the pending set.
  std::vector<net::WindowId> ids;
  ids.reserve(s->pending.size());
  for (const auto& w : s->pending) ids.push_back(w->id);
  for (net::WindowId id : ids) {
    PendingWindow* w = FindPending(s, id);
    if (w == nullptr) continue;
    if (!w->requests_sent) {
      // Still collecting synopses: drop the local's accepted contribution
      // (its data is no longer trusted) and release its retained window.
      if (w->Has(idx, PendingWindow::kSynopsis)) {
        MarkRetaining(*w);
        const bool retained = retains_[idx];
        uint64_t stripped = 0;
        auto keep = w->slices.begin();
        for (const SliceSynopsis& sl : w->slices) {
          if (sl.node == node) {
            stripped += sl.count;
          } else {
            *keep++ = sl;
          }
        }
        w->slices.erase(keep, w->slices.end());
        w->Clear(idx, PendingWindow::kSynopsis);
        --w->synopses_received;
        w->global_size -= stripped;
        w->Set(idx, PendingWindow::kExcluded);
        w->excluded_events += stripped;
        if (retained) SendRelease(sink, node, id);
      }
      DEMA_RETURN_NOT_OK(MaybeRunIdentification(s, w, sink));
    } else if (w->Has(idx, PendingWindow::kRequested) &&
               !w->Has(idx, PendingWindow::kReply)) {
      // Candidates already requested and the window still waits on this
      // local's reply, which will never arrive honestly — emit degraded from
      // whatever did (EmitDegraded also releases the local's retained
      // window).
      DEMA_RETURN_NOT_OK(EmitDegraded(s, w, "quarantine", sink));
    }
  }
  return Status::OK();
}

void RootCore::CreditCleanWindow(RootStream* s, const PendingWindow& w) {
  if (options_.recovery.quarantine_strikes == 0) return;
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    LocalReputation& h = s->health[i];
    if (h.state != LocalReputation::State::kProbation) continue;
    if (!w.Has(i, PendingWindow::kSynopsis)) continue;
    const bool replied_clean = !w.Has(i, PendingWindow::kRequested) ||
                               w.Has(i, PendingWindow::kReply);
    if (!replied_clean) continue;
    if (h.clean_windows_needed > 0 && --h.clean_windows_needed == 0) {
      h.state = LocalReputation::State::kHealthy;
      h.strikes = 0;
      c_readmitted_->Increment();
    }
  }
}

Status RootCore::BestEffort(Status sent) {
  if (sent.ok() || options_.recovery.deadline_ticks == 0) return sent;
  c_send_failures_->Increment();
  return Status::OK();
}

void RootCore::SendRelease(RootSink* sink, NodeId dst, net::WindowId id) {
  request_.window_id = id;
  request_.slice_indices.clear();
  (void)sink->SendRequest(dst, request_);
}

uint64_t RootCore::CurrentGammaFor(const RootStream& s, NodeId node) const {
  // A relay prescribes nothing itself: its children run on the parent's γ.
  if (options_.parent) return s.last_broadcast_gamma;
  if (options_.per_node_gamma) {
    const int64_t idx = LocalIndex(node);
    if (idx >= 0) return s.node_gamma[static_cast<size_t>(idx)].current();
  }
  return s.gamma.current();
}

DurationUs RootCore::EmitLatencyUs(TimestampUs close_us,
                                   obs::WindowTrace* trace) {
  TimestampUs now = clock_->NowUs();
  trace->emit_us = static_cast<uint64_t>(std::max<TimestampUs>(0, now));
  if (now < close_us) {
    // A peer's close stamp ran ahead of the root clock (possible across
    // processes despite the shared epoch); clamp instead of underflowing.
    c_clock_skew_windows_->Increment();
    trace->clock_skew = true;
    trace->latency_us = 0;
    return 0;
  }
  trace->latency_us = static_cast<uint64_t>(now - close_us);
  return now - close_us;
}

void RootCore::RecordTrace(PendingWindow* w) {
  if (tracer_ == nullptr) return;
  w->trace.global_size = w->global_size;
  w->trace.synopses = w->synopses_received;
  w->trace.local_close_us =
      static_cast<uint64_t>(std::max<TimestampUs>(0, w->last_close_time_us));
  tracer_->Record(w->trace);
}

sim::WindowOutput& RootCore::StartOutput(const PendingWindow& w) {
  out_.window_id = w.id;
  out_.global_size = w.global_size;
  out_.quantiles = options_.quantiles;
  out_.values.clear();
  out_.latency_us = 0;
  out_.degraded = false;
  out_.degrade_cause.clear();
  out_.rank_error_bound = 0;
  return out_;
}

void RootCore::CountLocalSizes(const PendingWindow& w) {
  local_sizes_.assign(options_.locals.size(), 0);
  for (const SliceSynopsis& sl : w.slices) {
    const int64_t idx = LocalIndex(sl.node);
    if (idx >= 0) local_sizes_[static_cast<size_t>(idx)] += sl.count;
  }
}

void RootCore::MarkRetaining(const PendingWindow& w) {
  // A node's slices sit together (one synopsis batch each). Marks are only
  // ever set, so each node gets `Retained` over all its slices in any order.
  retains_.assign(options_.locals.size(), 0);
  std::span<const SliceSynopsis> rest(w.slices);
  while (!rest.empty()) {
    const NodeId node = rest.front().node;
    const auto end = std::find_if(
        rest.begin(), rest.end(),
        [node](const SliceSynopsis& sl) { return sl.node != node; });
    const std::span<const SliceSynopsis> run(rest.begin(), end);
    const int64_t idx = LocalIndex(node);
    if (idx >= 0 && Retained(run)) retains_[static_cast<size_t>(idx)] = 1;
    rest = rest.subspan(run.size());
  }
}

Status RootCore::OnPayload(RootStream* s, net::MessageType type, NodeId src,
                           net::ByteSpan payload, RootSink* sink) {
  if (!init_status_.ok()) return init_status_;
  net::Reader r(payload);
  // A payload that fails to decode is corruption evidence, not a root
  // failure: drop it, count it, strike the sender. The retry/deadline
  // machinery recovers the window exactly as if the message were lost.
  switch (type) {
    case net::MessageType::kSynopsisBatch:
      if (!SynopsisBatch::DeserializeInto(&r, &synopsis_).ok()) {
        return RejectPayload(s, src, "decode", sink);
      }
      return HandleSynopsisBatch(s, synopsis_, src, sink);
    case net::MessageType::kCandidateReply:
      if (!CandidateReply::DeserializeInto(&r, &reply_).ok()) {
        return RejectPayload(s, src, "decode", sink);
      }
      return HandleCandidateReply(s, &reply_, src, sink);
    case net::MessageType::kGammaSyncRequest: {
      auto sync = GammaSyncRequest::Deserialize(&r);
      if (!sync.ok()) return RejectPayload(s, src, "decode", sink);
      return HandleGammaSync(s, *sync, src, sink);
    }
    case net::MessageType::kShutdown:
      return Status::OK();
    case net::MessageType::kCandidateRequest:
    case net::MessageType::kGammaUpdate:
      if (options_.parent) return HandleParentPayload(s, type, src, &r, sink);
      [[fallthrough]];
    default:
      return Status::Internal(std::string("root got unexpected ") +
                              net::MessageTypeToString(type));
  }
}

Status RootCore::HandleGammaSync(RootStream* s, const GammaSyncRequest& sync,
                                 NodeId src, RootSink* sink) {
  if (LocalIndex(src) < 0) return RejectPayload(s, src, "unknown_node", sink);
  if (sync.node != src) return RejectPayload(s, src, "node_mismatch", sink);
  // A restarted local missed any broadcasts while it was down; answer with
  // the current factor. effective_from 0 lets the local clamp the update to
  // its own emission frontier.
  GammaUpdate update;
  update.effective_from = 0;
  update.gamma = static_cast<uint32_t>(std::min<uint64_t>(
      std::max<uint64_t>(CurrentGammaFor(*s, sync.node), 2), UINT32_MAX));
  DEMA_RETURN_NOT_OK(BestEffort(sink->SendGamma(sync.node, update)));
  c_gamma_updates_sent_->Increment();
  return Status::OK();
}

Status RootCore::HandleParentPayload(RootStream* s, net::MessageType type,
                                     NodeId src, net::Reader* r,
                                     RootSink* sink) {
  if (src != *options_.parent) return RejectPayload(s, src, "unknown_node", sink);
  if (type == net::MessageType::kGammaUpdate) {
    auto update = GammaUpdate::Deserialize(r);
    if (!update.ok()) return RejectPayload(s, src, "decode", sink);
    // Recorded so a restarted child's re-sync gets the parent's factor.
    s->last_broadcast_gamma = update->gamma;
    return BroadcastGamma(update->effective_from, update->gamma, sink);
  }
  auto request = CandidateRequest::Deserialize(r);
  if (!request.ok()) return RejectPayload(s, src, "decode", sink);
  PendingWindow* w = FindPending(s, request->window_id);
  if (w == nullptr ? IsEmitted(*s, request->window_id) : w->requests_sent) {
    // Already answered: a retransmitted request.
    c_duplicates_ignored_->Increment();
    return Status::OK();
  }
  if (w == nullptr || !SynopsesComplete(*s, *w)) {
    // Nothing went up for this window yet, so no honest parent asks.
    return RejectPayload(s, src, "unexpected_request", sink);
  }
  w->cut.candidates.clear();
  w->cut.candidate_event_count = 0;
  for (uint32_t i : request->slice_indices) {
    // An honest parent reads a slice of ≤ 2 events from the synopsis.
    if (i >= w->slices.size() ||
        (!w->cut.candidates.empty() && i <= w->cut.candidates.back()) ||
        KnownFromSynopsis(w->slices[i])) {
      return RejectPayload(s, src, "slice_index", sink);
    }
    w->cut.candidates.push_back(i);
    w->cut.candidate_event_count += w->slices[i].count;
  }
  c_candidate_slices_->Increment(w->cut.candidates.size());
  c_candidate_events_->Increment(w->cut.candidate_event_count);
  return SendRequests(s, w, sink);
}

void RootCore::NoteWindowHorizon(RootStream* s, net::WindowId last) const {
  if (options_.recovery.deadline_ticks == 0) return;
  s->any_window_seen = true;
  s->highest_window_seen = std::max(s->highest_window_seen, last);
}

Status RootCore::HandleSynopsisBatch(RootStream* s, const SynopsisBatch& batch,
                                     NodeId src, RootSink* sink) {
  const int64_t found = LocalIndex(src);
  if (found < 0) {
    // An unknown sender (misrouted or forged frame) must not take the run
    // down; drop the payload and keep the window alive for the real locals.
    return RejectPayload(s, src, "unknown_node", sink);
  }
  const size_t idx = static_cast<size_t>(found);
  const bool quarantine = options_.recovery.quarantine_strikes > 0;
  if (const char* reason =
          ValidateSynopsisBatch(batch, src, options_.strict_validation)) {
    // The payload is untrusted, but its claimed size is still the only
    // available exclusion estimate if this strike ends in quarantine.
    if (quarantine) s->health[idx].last_claimed_size = batch.local_window_size;
    return RejectPayload(s, src, reason, sink);
  }
  if (IsQuarantined(*s, idx)) {
    // Remember the claimed size as an (untrusted) exclusion estimate, and
    // release the local's retained window — it will never be queried.
    s->health[idx].last_claimed_size = batch.local_window_size;
    SendRelease(sink, src, batch.window_id);
    return RejectPayload(s, src, "quarantined", sink);
  }
  if (IsEmitted(*s, batch.window_id)) {
    // A delayed or retransmitted synopsis for a window that already emitted
    // (possibly degraded); it must not resurrect a pending entry.
    c_duplicates_ignored_->Increment();
    return Status::OK();
  }
  PendingWindow* w = FindPending(s, batch.window_id);
  if (w != nullptr && w->Has(idx, PendingWindow::kSynopsis)) {
    c_duplicates_ignored_->Increment();
    return Status::OK();
  }
  if (w != nullptr &&
      batch.local_window_size > UINT64_MAX - w->global_size) {
    // Each size passed validation alone, but no honest set of windows sums
    // past 64 bits; a wrapped sum would corrupt every rank of the window.
    return RejectPayload(s, src, "size_mismatch", sink);
  }
  s->any_window_seen = true;
  s->highest_window_seen = std::max(s->highest_window_seen, batch.window_id);
  if (w == nullptr) {
    w = GetOrCreatePending(s, batch.window_id);
    StampTrace(&w->trace.first_synopsis_us);
  }
  w->Set(idx, PendingWindow::kSynopsis);
  if (w->synopses_received == 0) w->gamma_used = batch.gamma_used;
  ++w->synopses_received;
  if (quarantine) s->health[idx].last_known_size = batch.local_window_size;
  w->global_size += batch.local_window_size;
  w->last_close_time_us = std::max(w->last_close_time_us, batch.close_time_us);
  w->slices.insert(w->slices.end(), batch.slices.begin(), batch.slices.end());
  c_synopsis_slices_->Increment(batch.slices.size());
  StampTrace(&w->trace.last_synopsis_us);
  if (options_.recovery.deadline_ticks > 0) {
    // Progress: push the deadline out and refund the retry budget.
    w->next_check_tick = tick_ + options_.recovery.deadline_ticks;
    w->retries = 0;
  }
  return MaybeRunIdentification(s, w, sink);
}

Status RootCore::RunIdentification(RootStream* s, PendingWindow* w,
                                   RootSink* sink) {
  if (options_.parent) {
    // A relay does not cut: it ships the combined batch, and its parent cuts
    // over every relay's. Relay index == flat slice index, so the parent's
    // request names positions in `w->slices`.
    SynopsisBatch up;
    up.window_id = w->id;
    up.node = options_.id;
    up.local_window_size = w->global_size;
    up.gamma_used = w->gamma_used;
    up.close_time_us = w->last_close_time_us;
    up.slices = w->slices;
    for (size_t i = 0; i < up.slices.size(); ++i) {
      up.slices[i].node = options_.id;
      up.slices[i].index = static_cast<uint32_t>(i);
    }
    DEMA_RETURN_NOT_OK(sink->SendSynopsis(*options_.parent, up));
    // The parent never queries a window whose slices it knows.
    return Retained(w->slices) ? Status::OK() : FinishRelayWindow(s, w);
  }
  if (w->global_size == 0) {
    // Every contributing local window was empty; emit an empty result
    // directly — flagged degraded when emptiness is an artifact of
    // quarantine exclusions rather than a genuinely empty global window.
    sim::WindowOutput& out = StartOutput(*w);
    out.values.assign(options_.quantiles.size(), 0.0);
    if (w->excluded_events > 0) {
      out.degraded = true;
      out.degrade_cause = "quarantine";
      out.rank_error_bound = w->excluded_events;
      c_degraded_windows_->Increment();
      w->trace.degraded = true;
    }
    out.latency_us = EmitLatencyUs(w->last_close_time_us, &w->trace);
    c_windows_->Increment();
    RecordTrace(w);
    MarkEmitted(s, w->id);
    sink->Emit(out);
    Recycle(TakePending(s, w->id));
    return Status::OK();
  }

  StampTrace(&w->trace.identification_us);

  ranks_.clear();
  for (double q : options_.quantiles) {
    ranks_.push_back(stream::QuantileRank(q, w->global_size));
  }

  if (options_.use_naive_selection) {
    DEMA_ASSIGN_OR_RETURN(
        w->cut, WindowCut::SelectNaiveOverlap(w->slices, w->global_size, ranks_[0]));
  } else {
    DEMA_RETURN_NOT_OK(WindowCut::SelectMultiInto(w->slices, w->global_size,
                                                  ranks_, &cut_scratch_, &w->cut));
  }

  c_candidate_slices_->Increment(w->cut.candidates.size());
  c_candidate_events_->Increment(w->cut.candidate_event_count);
  c_class_separate_->Increment(w->cut.classes.separate);
  c_class_compound_->Increment(w->cut.classes.compound);
  c_class_cover_->Increment(w->cut.classes.cover);
  w->trace.candidate_slices = w->cut.candidates.size();
  w->trace.candidate_events = w->cut.candidate_event_count;
  CollectSynopsisRun(w);
  return SendRequests(s, w, sink);
}

void RootCore::CollectSynopsisRun(PendingWindow* w) {
  uint64_t served = 0;
  for (size_t flat : w->cut.candidates) {
    const SliceSynopsis& sl = w->slices[flat];
    if (!KnownFromSynopsis(sl)) continue;
    if (served++ == 0 && w->synopsis_run.capacity() == 0 && !run_pool_.empty()) {
      // The run goes back to the pool with the replies' (Recycle), so it is
      // taken from there too; a fresh buffer per window would grow the pool
      // by one for every window completed.
      w->synopsis_run = std::move(run_pool_.back());
      run_pool_.pop_back();
      w->synopsis_run.clear();
    }
    w->synopsis_run.push_back(sl.first);
    if (sl.count == 2) w->synopsis_run.push_back(sl.last);
  }
  std::sort(w->synopsis_run.begin(), w->synopsis_run.end());
  c_synopsis_served_slices_->Increment(served);
}

Status RootCore::SendRequests(RootStream* s, PendingWindow* w, RootSink* sink) {
  // Every node that retains the window gets a request; an empty index list
  // releases the window's memory on that node.
  GroupRequests(*w);
  MarkRetaining(*w);
  w->expected_replies = 0;
  w->requests_sent = true;
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (!retains_[i]) continue;
    const CandidateRequest& req = RequestFor(*w, i);
    if (!req.slice_indices.empty()) {
      w->Set(i, PendingWindow::kRequested);
      ++w->expected_replies;
    }
    DEMA_RETURN_NOT_OK(BestEffort(sink->SendRequest(options_.locals[i], req)));
  }
  if (w->expected_replies == 0) {
    // Nothing to fetch. A relay's parent released the window; the root knows
    // every candidate from the synopses and completes now.
    if (options_.parent) return FinishRelayWindow(s, w);
    return CompleteWindow(s, w, sink);
  }
  if (options_.recovery.deadline_ticks > 0) {
    w->next_check_tick = tick_ + options_.recovery.deadline_ticks;
    w->retries = 0;
  }
  return Status::OK();
}

Status RootCore::HandleCandidateReply(RootStream* s, CandidateReply* reply,
                                      NodeId src, RootSink* sink) {
  const int64_t found = LocalIndex(src);
  if (found < 0) {
    // Unknown sender: drop the payload, never the run (the window completes
    // from the real locals' replies).
    return RejectPayload(s, src, "unknown_node", sink);
  }
  const size_t idx = static_cast<size_t>(found);
  // Identity is checkable without window context — catch a tampered node
  // field even when the window already emitted.
  if (reply->node != src) return RejectPayload(s, src, "node_mismatch", sink);
  if (IsQuarantined(*s, idx)) return RejectPayload(s, src, "quarantined", sink);
  PendingWindow* w = FindPending(s, reply->window_id);
  if (w == nullptr) {
    // The window already completed; this is a retransmitted reply.
    c_duplicates_ignored_->Increment();
    return Status::OK();
  }
  if (!w->requests_sent) {
    // No request is out yet, so no honest local can be replying.
    return RejectPayload(s, src, "unexpected_reply", sink);
  }
  if (!w->Has(idx, PendingWindow::kRequested)) {
    // This local holds no candidate slices for the window; accepting the
    // run would shift every rank. (Before validation existed, such a reply
    // poisoned the completion count.)
    return RejectPayload(s, src, "unexpected_reply", sink);
  }
  // Re-derive the synopses of exactly the slices this local was asked for;
  // the reply must agree with what it declared at identification time.
  requested_.clear();
  for (size_t flat : w->cut.candidates) {
    const SliceSynopsis& sl = w->slices[flat];
    if (sl.node == src && !KnownFromSynopsis(sl)) requested_.push_back(sl);
  }
  if (const char* reason = ValidateCandidateReply(
          *reply, src, requested_, options_.strict_validation)) {
    return RejectPayload(s, src, reason, sink);
  }
  if (w->Has(idx, PendingWindow::kReply)) {
    c_duplicates_ignored_->Increment();
    return Status::OK();
  }
  w->Set(idx, PendingWindow::kReply);
  w->reply_runs.push_back(std::move(reply->events));
  // The next reply decodes into a recycled run buffer.
  if (!run_pool_.empty()) {
    reply->events = std::move(run_pool_.back());
    run_pool_.pop_back();
  }
  ++w->trace.replies;
  if (tracer_ != nullptr) {
    const uint64_t now = NowStamp();
    if (w->trace.first_reply_us == 0) w->trace.first_reply_us = now;
    w->trace.last_reply_us = now;
  }
  if (options_.recovery.deadline_ticks > 0) {
    w->next_check_tick = tick_ + options_.recovery.deadline_ticks;
    w->retries = 0;
  }
  if (w->reply_runs.size() == w->expected_replies) {
    return CompleteWindow(s, w, sink);
  }
  return Status::OK();
}

Status RootCore::SelectFromReplies(PendingWindow* w,
                                   const std::vector<uint64_t>& within_ranks) {
  auto select_start = std::chrono::steady_clock::now();
  DEMA_RETURN_NOT_OK(
      stream::SelectRanksFromRunsInto(&w->reply_runs, within_ranks, &picked_));
  h_select_us_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - select_start)
          .count()));
  for (const Event& e : picked_) out_.values.push_back(e.value);
  return Status::OK();
}

Status RootCore::CompleteWindow(RootStream* s, PendingWindow* w,
                                RootSink* sink) {
  // Replies are pre-sorted runs (one per node, plus the synopsis-served
  // run); rank-select straight off the loser tree — the merged candidate
  // sequence is never materialized. The window-cut consistency check works
  // on summed run sizes instead.
  AdoptSynopsisRun(w);
  uint64_t total = 0;
  for (const auto& run : w->reply_runs) total += run.size();
  if (total != w->cut.candidate_event_count) {
    return Status::Internal("candidate reply events (" + std::to_string(total) +
                            ") do not match window-cut expectation (" +
                            std::to_string(w->cut.candidate_event_count) + ")");
  }
  if (options_.parent) {
    // A relay does not select: one merged sorted run goes up, as a local's
    // reply would.
    CandidateReply up;
    up.window_id = w->id;
    up.node = options_.id;
    up.events = stream::MergeSortedRuns(std::move(w->reply_runs));
    w->reply_runs.clear();
    DEMA_RETURN_NOT_OK(sink->SendReply(*options_.parent, up));
    return FinishRelayWindow(s, w);
  }

  within_ranks_.clear();
  for (const RankSelection& sel : w->cut.selections) {
    uint64_t within = sel.rank - sel.below_count;  // 1-based among candidates
    if (within < 1 || within > total) {
      return Status::Internal("selection rank " + std::to_string(within) +
                              " outside merged candidates [1, " +
                              std::to_string(total) + "]");
    }
    within_ranks_.push_back(within);
  }
  sim::WindowOutput& out = StartOutput(*w);
  DEMA_RETURN_NOT_OK(SelectFromReplies(w, within_ranks_));
  if (w->excluded_events > 0) {
    // Exact over the contributing locals, but a quarantined local's events
    // were excluded — flag the emit so no consumer mistakes it for the true
    // global quantile. The exclusion count bounds the rank error.
    out.degraded = true;
    out.degrade_cause = "quarantine";
    out.rank_error_bound = w->excluded_events;
    c_degraded_windows_->Increment();
    w->trace.degraded = true;
  }
  out.latency_us = EmitLatencyUs(w->last_close_time_us, &w->trace);

  c_windows_->Increment();
  c_global_events_->Increment(w->global_size);
  RecordTrace(w);
  MarkEmitted(s, w->id);
  std::unique_ptr<PendingWindow> completed = TakePending(s, w->id);
  sink->Emit(out);
  // An exact completion is the probation currency: every local that
  // contributed cleanly earns a credit toward re-admission.
  CreditCleanWindow(s, *completed);

  if (options_.adaptive_gamma && options_.per_node_gamma) {
    DEMA_RETURN_NOT_OK(AdaptPerNode(s, *completed, sink));
  } else if (options_.adaptive_gamma) {
    uint64_t next =
        s->gamma.Observe(completed->global_size, completed->cut.candidates.size());
    if (next != s->last_broadcast_gamma) {
      DEMA_RETURN_NOT_OK(BroadcastGamma(completed->id + 1, next, sink));
      s->last_broadcast_gamma = next;
    }
  }
  Recycle(std::move(completed));
  return Status::OK();
}

Status RootCore::FinishRelayWindow(RootStream* s, PendingWindow* w) {
  c_windows_->Increment();
  MarkEmitted(s, w->id);
  Recycle(TakePending(s, w->id));
  return Status::OK();
}

Status RootCore::AdaptPerNode(RootStream* s, const PendingWindow& w,
                              RootSink* sink) {
  // Per-node observations: l_i from the node's slice counts, m_i from its
  // share of the candidate set. The per-node cost model mirrors the global
  // one — identification ships 2·l_i/γ_i synopsis events from node i,
  // calculation ships m_i·(γ_i − 2) of its events.
  CountLocalSizes(w);
  local_candidates_.assign(options_.locals.size(), 0);
  for (size_t flat : w.cut.candidates) {
    const int64_t idx = LocalIndex(w.slices[flat].node);
    if (idx >= 0) ++local_candidates_[static_cast<size_t>(idx)];
  }
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (local_sizes_[i] == 0) continue;  // no observation from an idle node
    uint64_t next = s->node_gamma[i].Observe(local_sizes_[i], local_candidates_[i]);
    if (next == s->node_last_broadcast[i]) continue;
    GammaUpdate update;
    update.effective_from = w.id + 1;
    update.gamma = static_cast<uint32_t>(std::min<uint64_t>(next, UINT32_MAX));
    DEMA_RETURN_NOT_OK(BestEffort(sink->SendGamma(options_.locals[i], update)));
    s->node_last_broadcast[i] = next;
    c_gamma_updates_sent_->Increment();
  }
  return Status::OK();
}

Status RootCore::BroadcastGamma(net::WindowId effective_from, uint64_t gamma,
                                RootSink* sink) {
  GammaUpdate update;
  update.effective_from = effective_from;
  update.gamma = static_cast<uint32_t>(std::min<uint64_t>(gamma, UINT32_MAX));
  // Counts messages, not broadcasts, matching AdaptPerNode's accounting.
  for (NodeId node : options_.locals) {
    DEMA_RETURN_NOT_OK(BestEffort(sink->SendGamma(node, update)));
    c_gamma_updates_sent_->Increment();
  }
  return Status::OK();
}

bool RootCore::BeginTick() {
  if (options_.recovery.deadline_ticks == 0) return false;
  ++tick_;
  return true;
}

Status RootCore::Tick(RootStream* s, RootSink* sink) {
  // Gap-fill: a window whose every synopsis was dropped has no pending entry
  // and would otherwise stall silently. Create one for each known-to-exist,
  // not-yet-emitted id so the deadline machinery sees it.
  if (s->any_window_seen) {
    for (net::WindowId id = s->emitted_below; id <= s->highest_window_seen; ++id) {
      if (IsEmitted(*s, id) || FindPending(s, id) != nullptr) continue;
      GetOrCreatePending(s, id)->next_check_tick =
          tick_ + options_.recovery.deadline_ticks;
    }
  }
  std::vector<std::pair<net::WindowId, const char*>> to_degrade;
  for (const auto& owned : s->pending) {
    PendingWindow& w = *owned;
    if (tick_ < w.next_check_tick) continue;
    if (w.retries >= options_.recovery.max_retries) {
      const char* cause;
      if (w.requests_sent) {
        cause = w.reply_runs.empty() ? "replies_lost" : "replies_partial";
      } else {
        cause = w.synopses_received == 0 ? "synopses_lost" : "synopses_partial";
      }
      to_degrade.emplace_back(w.id, cause);
      continue;
    }
    ++w.retries;
    // Exponential backoff between recovery attempts.
    w.next_check_tick = tick_ + (options_.recovery.deadline_ticks << w.retries);
    if (!w.requests_sent) {
      // Nothing to re-request in the synopsis phase: a crashed local re-ships
      // its windows after restarting, so the backoff just extends the wait.
      continue;
    }
    // Retransmit in local-id order.
    GroupRequests(w);
    for (const auto& [node, i] : local_index_) {
      if (!w.Has(i, PendingWindow::kRequested) ||
          w.Has(i, PendingWindow::kReply)) {
        continue;
      }
      c_retries_->Increment();
      DEMA_RETURN_NOT_OK(BestEffort(sink->SendRequest(node, RequestFor(w, i))));
    }
  }
  for (const auto& [id, cause] : to_degrade) {
    PendingWindow* w = FindPending(s, id);
    if (w == nullptr) continue;
    DEMA_RETURN_NOT_OK(EmitDegraded(s, w, cause, sink));
  }
  return Status::OK();
}

Status RootCore::EmitDegraded(RootStream* s, PendingWindow* w,
                              const char* cause, RootSink* sink) {
  sim::WindowOutput& out = StartOutput(*w);
  out.degraded = true;
  out.degrade_cause = cause;
  AdoptSynopsisRun(w);
  uint64_t arrived = 0;
  for (const auto& run : w->reply_runs) arrived += run.size();
  if (w->requests_sent && arrived > 0) {
    // Partial candidate data: answer from what arrived. Each missing
    // candidate event can shift a value's true rank by at most one, so the
    // shortfall bounds the rank error. Same no-materialization selection as
    // the healthy path, with ranks clamped into the arrived range.
    out.rank_error_bound = w->cut.candidate_event_count > arrived
                               ? w->cut.candidate_event_count - arrived
                               : 0;
    within_ranks_.clear();
    for (const RankSelection& sel : w->cut.selections) {
      uint64_t within = sel.rank > sel.below_count ? sel.rank - sel.below_count : 1;
      within_ranks_.push_back(
          std::min<uint64_t>(std::max<uint64_t>(within, 1), arrived));
    }
    DEMA_RETURN_NOT_OK(SelectFromReplies(w, within_ranks_));
  } else if (!w->slices.empty()) {
    // Synopses only: walk the slices in ascending first-value order,
    // accumulate counts up to the target rank, and answer with the
    // containing slice's first value. The true value can sit anywhere inside
    // that slice, so its size bounds the rank error.
    std::vector<const SliceSynopsis*> order;
    order.reserve(w->slices.size());
    for (const SliceSynopsis& sl : w->slices) order.push_back(&sl);
    std::sort(order.begin(), order.end(),
              [](const SliceSynopsis* a, const SliceSynopsis* b) {
                if (a->first.value != b->first.value)
                  return a->first.value < b->first.value;
                if (a->node != b->node) return a->node < b->node;
                return a->index < b->index;
              });
    uint64_t observed = 0;
    for (const SliceSynopsis* sl : order) observed += sl->count;
    for (double q : options_.quantiles) {
      uint64_t target = stream::QuantileRank(q, observed);
      uint64_t cum = 0;
      double value = 0.0;
      for (const SliceSynopsis* sl : order) {
        cum += sl->count;
        value = sl->first.value;
        if (cum >= target) {
          out.rank_error_bound = std::max(out.rank_error_bound, sl->count);
          break;
        }
      }
      out.values.push_back(value);
    }
  } else {
    // Nothing arrived at all; emit an explicitly-empty degraded result.
    out.values.assign(options_.quantiles.size(), 0.0);
    out.rank_error_bound = 0;
  }
  // Quarantine exclusions shift true ranks on top of whatever this window
  // already lost; the bounds compose additively.
  out.rank_error_bound += w->excluded_events;
  out.latency_us = EmitLatencyUs(w->last_close_time_us, &w->trace);

  // Release retained windows on locals we will no longer query (best
  // effort: the node may be down, and a restarted one re-serves or prunes).
  MarkRetaining(*w);
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (!retains_[i] || w->Has(i, PendingWindow::kReply)) continue;
    SendRelease(sink, options_.locals[i], w->id);
  }

  c_windows_->Increment();
  c_degraded_windows_->Increment();
  c_global_events_->Increment(w->global_size);
  w->trace.degraded = true;
  RecordTrace(w);
  MarkEmitted(s, w->id);
  Recycle(TakePending(s, w->id));
  sink->Emit(out);
  return Status::OK();
}

}  // namespace dema::core
