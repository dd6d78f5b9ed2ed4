#include "net/codec.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace dema::net {

namespace {

/// True when every value is non-negative and ascending — the precondition
/// for bit-delta value encoding.
bool SortedNonNegative(const std::vector<Event>& events) {
  double prev = 0;
  for (const Event& e : events) {
    if (e.value < prev || std::signbit(e.value)) return false;
    prev = e.value;
  }
  return true;
}

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

void EncodeEvents(Writer* w, const std::vector<Event>& events, EventCodec codec,
                  bool sorted_hint) {
  w->PutU8(static_cast<uint8_t>(codec));
  w->PutVarint(events.size());
  if (codec == EventCodec::kFixed) {
    if constexpr (sizeof(Event) == kEventWireBytes &&
                  std::endian::native == std::endian::little) {
      // The mirror of `DecodeEvents`' bulk copy: `Event` is laid out exactly
      // like its wire record, so the batch is one append.
      if (!events.empty()) {
        w->PutBytes(reinterpret_cast<const uint8_t*>(events.data()),
                    events.size() * kEventWireBytes);
      }
    } else {
      for (const Event& e : events) w->PutEvent(e);
    }
    return;
  }
  // kCompact: value mode 1 = ascending bit-pattern deltas, 0 = raw doubles.
  uint8_t value_mode =
      sorted_hint && SortedNonNegative(events) ? 1 : 0;
  w->PutU8(value_mode);
  uint64_t prev_bits = 0;
  int64_t prev_ts = 0, prev_node = 0, prev_seq = 0;
  for (const Event& e : events) {
    if (value_mode == 1) {
      uint64_t bits = BitsOf(e.value);
      w->PutVarint(bits - prev_bits);  // non-negative: IEEE order == numeric
      prev_bits = bits;
    } else {
      w->PutDouble(e.value);
    }
    w->PutZigzag(e.timestamp - prev_ts);
    w->PutZigzag(static_cast<int64_t>(e.node) - prev_node);
    w->PutZigzag(static_cast<int64_t>(e.seq) - prev_seq);
    prev_ts = e.timestamp;
    prev_node = e.node;
    prev_seq = e.seq;
  }
}

uint64_t MinEncodedEventsBytes(uint64_t count, EventCodec codec) {
  uint64_t count_bytes = 1;
  for (uint64_t v = count; v >= 0x80; v >>= 7) ++count_bytes;
  const uint64_t header = 1 + count_bytes;  // codec tag, varint count
  if (codec == EventCodec::kFixed) return header + count * kEventWireBytes;
  return header + 1 + count * kMinCompactEventWireBytes;  // + value mode
}

Status DecodeEvents(Reader* r, std::vector<Event>* out) {
  uint8_t tag = 0;
  DEMA_RETURN_NOT_OK(r->GetU8(&tag));
  if (tag > static_cast<uint8_t>(EventCodec::kCompact)) {
    return Status::SerializationError("unknown event codec tag");
  }
  EventCodec codec = static_cast<EventCodec>(tag);
  uint64_t count = 0;
  DEMA_RETURN_NOT_OK(r->GetVarint(&count));
  out->clear();

  if (codec == EventCodec::kFixed) {
    // Division form: `count * kEventWireBytes` wraps for corrupt counts near
    // 2^64 and would let a hostile payload drive a huge reserve().
    if (count > r->remaining() / kEventWireBytes) {
      return Status::SerializationError("event count exceeds remaining buffer");
    }
    out->resize(count);
    if constexpr (sizeof(Event) == kEventWireBytes &&
                  std::endian::native == std::endian::little) {
      // `Event` is laid out exactly like its wire record (LE, no padding), so
      // the whole batch is one bounds-checked memcpy instead of 4 field reads
      // per event — the decode half of the zero-copy receive hot path. An
      // empty vector's data() may be null, which memcpy must never get.
      if (count == 0) return Status::OK();
      std::memcpy(out->data(), r->raw(), count * kEventWireBytes);
      return r->Skip(count * kEventWireBytes);
    } else {
      for (uint64_t i = 0; i < count; ++i) {
        DEMA_RETURN_NOT_OK(r->GetEvent(&(*out)[i]));
      }
      return Status::OK();
    }
  }

  uint8_t value_mode = 0;
  DEMA_RETURN_NOT_OK(r->GetU8(&value_mode));
  if (value_mode > 1) {
    return Status::SerializationError("unknown compact value mode");
  }
  // Division form so a corrupt count near 2^64 cannot wrap past the check.
  if (count > r->remaining() / kMinCompactEventWireBytes) {
    return Status::SerializationError("event count exceeds remaining buffer");
  }
  out->reserve(count);
  uint64_t value_bits = 0;
  int64_t prev_ts = 0, prev_node = 0, prev_seq = 0;
  for (uint64_t i = 0; i < count; ++i) {
    Event e;
    if (value_mode == 1) {
      uint64_t delta = 0;
      DEMA_RETURN_NOT_OK(r->GetVarint(&delta));
      value_bits += delta;
      std::memcpy(&e.value, &value_bits, sizeof(e.value));
    } else {
      DEMA_RETURN_NOT_OK(r->GetDouble(&e.value));
    }
    int64_t d_ts = 0, d_node = 0, d_seq = 0;
    DEMA_RETURN_NOT_OK(r->GetZigzag(&d_ts));
    DEMA_RETURN_NOT_OK(r->GetZigzag(&d_node));
    DEMA_RETURN_NOT_OK(r->GetZigzag(&d_seq));
    prev_ts += d_ts;
    prev_node += d_node;
    prev_seq += d_seq;
    e.timestamp = prev_ts;
    if (prev_node < 0 || prev_node > UINT32_MAX || prev_seq < 0 ||
        prev_seq > UINT32_MAX) {
      return Status::SerializationError("compact delta out of field range");
    }
    e.node = static_cast<NodeId>(prev_node);
    e.seq = static_cast<uint32_t>(prev_seq);
    out->push_back(e);
  }
  return Status::OK();
}

}  // namespace dema::net
