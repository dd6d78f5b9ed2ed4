#include "dema/protocol.h"

namespace dema::core {

void SynopsisBatch::SerializeTo(net::Writer* w) const {
  w->PutU64(window_id);
  w->PutU32(node);
  w->PutU64(local_window_size);
  w->PutU32(gamma_used);
  w->PutI64(close_time_us);
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
  uint32_t n = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&n));
  // Each serialized synopsis is at least two events + ids + count; reject
  // counts the remaining buffer cannot possibly hold before reserving.
  constexpr size_t kMinSynopsisBytes = 2 * kEventWireBytes + 2 * sizeof(uint32_t);
  if (static_cast<size_t>(n) * kMinSynopsisBytes > r->remaining()) {
    return Status::SerializationError("slice count exceeds remaining buffer");
  }
  b->slices.resize(n);
  uint64_t total = 0;
  for (SliceSynopsis& s : b->slices) {
    DEMA_RETURN_NOT_OK(SliceSynopsis::DeserializeInto(r, &s));
    total += s.count;
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
  DEMA_RETURN_NOT_OK(r->GetU64(&req.window_id));
  uint32_t n = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&n));
  if (static_cast<size_t>(n) * sizeof(uint32_t) > r->remaining()) {
    return Status::SerializationError("index count exceeds remaining buffer");
  }
  req.slice_indices.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t idx = 0;
    DEMA_RETURN_NOT_OK(r->GetU32(&idx));
    if (!req.slice_indices.empty() && idx <= req.slice_indices.back()) {
      return Status::SerializationError("slice indices must be ascending");
    }
    req.slice_indices.push_back(idx);
  }
  return req;
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
