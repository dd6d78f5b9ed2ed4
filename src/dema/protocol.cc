#include "dema/protocol.h"

#include <algorithm>
#include <bit>

namespace dema::core {

namespace {

void PutHeader(const SynopsisBatch& b, net::Writer* w) {
  w->PutU64(b.window_id);
  w->PutU32(b.node);
  w->PutU64(b.local_window_size);
  w->PutU32(b.gamma_used);
  w->PutI64(b.close_time_us);
}

/// Bit-for-bit equality (`Event::operator==` equates -0.0 with +0.0).
bool SameBits(const Event& a, const Event& b) {
  return std::bit_cast<uint64_t>(a.value) == std::bit_cast<uint64_t>(b.value) &&
         a.timestamp == b.timestamp && a.node == b.node && a.seq == b.seq;
}

/// Fills \p events with the window \p b was cut from and returns true when
/// \p b's slices are exactly `CutIntoSlices(events, b.node, 2)` of sorted
/// events — the batches the events form carries without loss.
bool EventsOfGammaTwoCut(const SynopsisBatch& b, std::vector<Event>* events) {
  events->clear();
  const size_t n = b.slices.size();
  for (size_t i = 0; i < n; ++i) {
    const SliceSynopsis& s = b.slices[i];
    if (s.node != b.node || s.index != i) return false;
    if (s.count == 2) {
      events->push_back(s.first);
      events->push_back(s.last);
    } else if (s.count == 1 && i + 1 == n && SameBits(s.first, s.last)) {
      events->push_back(s.first);
    } else {
      return false;
    }
  }
  return events->size() == b.local_window_size &&
         std::is_sorted(events->begin(), events->end());
}

}  // namespace

void SynopsisBatch::SerializeTo(net::Writer* w) const {
  if (gamma_used != 2 || slices.empty()) return SerializeSlicesTo(w);
  thread_local std::vector<Event> events;
  if (!EventsOfGammaTwoCut(*this, &events)) return SerializeSlicesTo(w);
  PutHeader(*this, w);
  w->PutU32(kSynopsisEventsForm);
  net::EncodeEvents(w, events, codec, /*sorted_hint=*/true);
}

void SynopsisBatch::SerializeSlicesTo(net::Writer* w) const {
  PutHeader(*this, w);
  w->PutU32(static_cast<uint32_t>(slices.size()));
  for (const SliceSynopsis& s : slices) s.SerializeTo(w);
}

Result<SynopsisBatch> SynopsisBatch::Deserialize(net::Reader* r) {
  SynopsisBatch b;
  DEMA_RETURN_NOT_OK(DeserializeInto(r, &b));
  return b;
}

Status SynopsisBatch::DeserializeInto(net::Reader* r, SynopsisBatch* b) {
  DEMA_RETURN_NOT_OK(r->GetU64(&b->window_id));
  DEMA_RETURN_NOT_OK(r->GetU32(&b->node));
  DEMA_RETURN_NOT_OK(r->GetU64(&b->local_window_size));
  DEMA_RETURN_NOT_OK(r->GetU32(&b->gamma_used));
  DEMA_RETURN_NOT_OK(r->GetI64(&b->close_time_us));
  uint32_t form = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&form));
  if (form == kSynopsisEventsForm) {
    if (b->gamma_used != 2) {
      return Status::SerializationError("events form needs gamma_used 2");
    }
    thread_local std::vector<Event> events;
    DEMA_RETURN_NOT_OK(net::DecodeEvents(r, &events));
    if (!std::is_sorted(events.begin(), events.end())) {
      return Status::SerializationError("events form out of order");
    }
    CutIntoSlicesInto(events, b->node, 2, &b->slices);
  } else if (form >= kSynopsisFormMarkers) {
    return Status::SerializationError("unknown synopsis batch form");
  } else {
    // Each serialized synopsis is at least two events + ids + count; reject
    // counts the remaining buffer cannot possibly hold before reserving.
    constexpr size_t kMinSynopsisBytes =
        2 * kEventWireBytes + 2 * sizeof(uint32_t);
    if (static_cast<size_t>(form) * kMinSynopsisBytes > r->remaining()) {
      return Status::SerializationError("slice count exceeds remaining buffer");
    }
    b->slices.resize(form);
    for (SliceSynopsis& s : b->slices) {
      DEMA_RETURN_NOT_OK(SliceSynopsis::DeserializeInto(r, &s));
    }
  }
  uint64_t total = 0;
  for (const SliceSynopsis& s : b->slices) {
    if (__builtin_add_overflow(total, s.count, &total)) {
      return Status::SerializationError("slice counts overflow 64 bits");
    }
  }
  if (total != b->local_window_size) {
    return Status::SerializationError("slice counts do not sum to window size");
  }
  return Status::OK();
}

void CandidateRequest::SerializeTo(net::Writer* w) const {
  w->PutU64(window_id);
  w->PutU32(static_cast<uint32_t>(slice_indices.size()));
  for (uint32_t idx : slice_indices) w->PutU32(idx);
}

Result<CandidateRequest> CandidateRequest::Deserialize(net::Reader* r) {
  CandidateRequest req;
  DEMA_RETURN_NOT_OK(DeserializeInto(r, &req));
  return req;
}

Status CandidateRequest::DeserializeInto(net::Reader* r, CandidateRequest* req) {
  DEMA_RETURN_NOT_OK(r->GetU64(&req->window_id));
  uint32_t n = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&n));
  if (static_cast<size_t>(n) * sizeof(uint32_t) > r->remaining()) {
    return Status::SerializationError("index count exceeds remaining buffer");
  }
  req->slice_indices.clear();
  req->slice_indices.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t idx = 0;
    DEMA_RETURN_NOT_OK(r->GetU32(&idx));
    if (!req->slice_indices.empty() && idx <= req->slice_indices.back()) {
      return Status::SerializationError("slice indices must be ascending");
    }
    req->slice_indices.push_back(idx);
  }
  return Status::OK();
}

void CandidateReply::SerializeTo(net::Writer* w) const {
  w->PutU64(window_id);
  w->PutU32(node);
  net::EncodeEvents(w, events, codec, /*sorted_hint=*/true);
}

Result<CandidateReply> CandidateReply::Deserialize(net::Reader* r) {
  CandidateReply rep;
  DEMA_RETURN_NOT_OK(DeserializeInto(r, &rep));
  return rep;
}

Status CandidateReply::DeserializeInto(net::Reader* r, CandidateReply* rep) {
  DEMA_RETURN_NOT_OK(r->GetU64(&rep->window_id));
  DEMA_RETURN_NOT_OK(r->GetU32(&rep->node));
  return net::DecodeEvents(r, &rep->events);
}

void GammaUpdate::SerializeTo(net::Writer* w) const {
  w->PutU64(effective_from);
  w->PutU32(gamma);
}

Result<GammaUpdate> GammaUpdate::Deserialize(net::Reader* r) {
  GammaUpdate g;
  DEMA_RETURN_NOT_OK(r->GetU64(&g.effective_from));
  DEMA_RETURN_NOT_OK(r->GetU32(&g.gamma));
  if (g.gamma < 2) return Status::SerializationError("gamma must be >= 2");
  return g;
}

void GammaSyncRequest::SerializeTo(net::Writer* w) const { w->PutU32(node); }

Result<GammaSyncRequest> GammaSyncRequest::Deserialize(net::Reader* r) {
  GammaSyncRequest g;
  DEMA_RETURN_NOT_OK(r->GetU32(&g.node));
  return g;
}

void WindowResult::SerializeTo(net::Writer* w) const {
  w->PutU64(window_id);
  w->PutDouble(q);
  w->PutEvent(result);
  w->PutU64(global_size);
  w->PutI64(latency_us);
}

Result<WindowResult> WindowResult::Deserialize(net::Reader* r) {
  WindowResult res;
  DEMA_RETURN_NOT_OK(r->GetU64(&res.window_id));
  DEMA_RETURN_NOT_OK(r->GetDouble(&res.q));
  DEMA_RETURN_NOT_OK(r->GetEvent(&res.result));
  DEMA_RETURN_NOT_OK(r->GetU64(&res.global_size));
  DEMA_RETURN_NOT_OK(r->GetI64(&res.latency_us));
  return res;
}

}  // namespace dema::core
