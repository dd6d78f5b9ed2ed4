#include "dema/slice.h"

namespace dema::core {

void SliceSynopsis::SerializeTo(net::Writer* w) const {
  w->PutU32(node);
  w->PutU32(index);
  w->PutEvent(first);
  w->PutEvent(last);
  w->PutU64(count);
}

Status SliceSynopsis::DeserializeInto(net::Reader* r, SliceSynopsis* out) {
  DEMA_RETURN_NOT_OK(r->GetU32(&out->node));
  DEMA_RETURN_NOT_OK(r->GetU32(&out->index));
  DEMA_RETURN_NOT_OK(r->GetEvent(&out->first));
  DEMA_RETURN_NOT_OK(r->GetEvent(&out->last));
  DEMA_RETURN_NOT_OK(r->GetU64(&out->count));
  if (out->count == 0) return Status::SerializationError("slice with zero events");
  return Status::OK();
}

std::ostream& operator<<(std::ostream& os, const SliceSynopsis& s) {
  return os << "Slice{n=" << s.node << ", i=" << s.index << ", c=" << s.count
            << ", first=" << s.first.value << ", last=" << s.last.value << "}";
}

Result<std::vector<SliceSynopsis>> CutIntoSlices(const std::vector<Event>& sorted,
                                                 NodeId node, uint64_t gamma) {
  if (gamma < 2) return Status::InvalidArgument("gamma must be >= 2");
  std::vector<SliceSynopsis> out;
  CutIntoSlicesInto(sorted, node, gamma, &out);
  return out;
}

void CutIntoSlicesInto(std::span<const Event> sorted, NodeId node,
                       uint64_t gamma, std::vector<SliceSynopsis>* out) {
  const uint64_t n = sorted.size();
  out->resize(static_cast<size_t>((n + gamma - 1) / gamma));
  for (size_t i = 0; i < out->size(); ++i) {
    const auto index = static_cast<uint32_t>(i);
    auto [begin, end] = SliceEventRange(n, gamma, index);
    SliceSynopsis& s = (*out)[i];
    s.node = node;
    s.index = index;
    s.first = sorted[begin];
    s.last = sorted[end - 1];
    s.count = end - begin;
  }
}

}  // namespace dema::core
