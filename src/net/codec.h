#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/event.h"
#include "common/status.h"
#include "net/serializer.h"

namespace dema::net {

/// \brief Wire encoding of an event sequence.
enum class EventCodec : uint8_t {
  /// Fixed-width records (24 B/event): fastest, supports the stride-based
  /// value fast path.
  kFixed = 0,
  /// Delta/varint compression (~9-14 B/event typical): timestamps, node ids,
  /// and sequence numbers are zigzag deltas; values are raw doubles, or
  /// varint bit-pattern deltas when the sequence is sorted and non-negative
  /// (IEEE-754 bit order equals numeric order for non-negative doubles, so
  /// ascending values give small non-negative deltas).
  kCompact = 1,
};

/// Smallest wire size of one kCompact event: a value byte and three one-byte
/// deltas.
inline constexpr uint64_t kMinCompactEventWireBytes = 4;

/// \brief Encodes \p events into \p w: codec tag, count, then the payload.
///
/// \p sorted_hint enables the bit-delta value encoding for kCompact when the
/// events are ascending by value (the encoder verifies non-negativity and
/// falls back to raw values otherwise).
void EncodeEvents(Writer* w, const std::vector<Event>& events, EventCodec codec,
                  bool sorted_hint = false);

/// \brief The fewest bytes `EncodeEvents` writes for \p count events in
/// \p codec; exact for kFixed.
uint64_t MinEncodedEventsBytes(uint64_t count, EventCodec codec);

/// \brief Decodes an `EncodeEvents` stream (any codec) into \p out.
Status DecodeEvents(Reader* r, std::vector<Event>* out);

/// \brief Streams only the values of an `EncodeEvents` stream to \p fn
/// (the sketch root's fast path); returns the event count.
template <typename Fn>
Status ForEachEncodedValue(Reader* r, Fn&& fn, uint64_t* count_out);

// --- implementation of the template -----------------------------------------

namespace codec_internal {
/// Decodes the per-event stream invoking fn(value) per event; skips the
/// non-value fields as cheaply as the codec allows.
template <typename Fn>
Status StreamValues(Reader* r, EventCodec codec, uint64_t count, uint8_t value_mode,
                    Fn&& fn) {
  if (codec == EventCodec::kFixed) {
    // Validated stride over the fixed-width records: one bounds check for
    // the whole batch, then a raw pointer walk (sketch-root hot path). The
    // division form keeps a corrupt count near 2^64 from wrapping the check.
    if (count > r->remaining() / kEventWireBytes) {
      return Status::SerializationError("event count exceeds remaining buffer");
    }
    const uint8_t* p = r->raw();
    for (uint64_t i = 0; i < count; ++i, p += kEventWireBytes) {
      double value;
      std::memcpy(&value, p, sizeof(value));
      fn(value);
    }
    return r->Skip(count * kEventWireBytes);
  }
  uint64_t value_bits = 0;
  int64_t prev_ts = 0, prev_node = 0, prev_seq = 0;
  for (uint64_t i = 0; i < count; ++i) {
    double value;
    if (value_mode == 1) {
      uint64_t delta = 0;
      DEMA_RETURN_NOT_OK(r->GetVarint(&delta));
      value_bits += delta;
      std::memcpy(&value, &value_bits, sizeof(value));
    } else {
      DEMA_RETURN_NOT_OK(r->GetDouble(&value));
    }
    int64_t d_ts = 0, d_node = 0, d_seq = 0;
    DEMA_RETURN_NOT_OK(r->GetZigzag(&d_ts));
    DEMA_RETURN_NOT_OK(r->GetZigzag(&d_node));
    DEMA_RETURN_NOT_OK(r->GetZigzag(&d_seq));
    prev_ts += d_ts;
    prev_node += d_node;
    prev_seq += d_seq;
    fn(value);
  }
  return Status::OK();
}
}  // namespace codec_internal

template <typename Fn>
Status ForEachEncodedValue(Reader* r, Fn&& fn, uint64_t* count_out) {
  uint8_t tag = 0;
  DEMA_RETURN_NOT_OK(r->GetU8(&tag));
  if (tag > static_cast<uint8_t>(EventCodec::kCompact)) {
    return Status::SerializationError("unknown event codec tag");
  }
  EventCodec codec = static_cast<EventCodec>(tag);
  uint64_t count = 0;
  DEMA_RETURN_NOT_OK(r->GetVarint(&count));
  uint8_t value_mode = 0;
  if (codec == EventCodec::kCompact) {
    DEMA_RETURN_NOT_OK(r->GetU8(&value_mode));
  } else if (count > r->remaining() / kEventWireBytes) {
    return Status::SerializationError("event count exceeds remaining buffer");
  }
  DEMA_RETURN_NOT_OK(codec_internal::StreamValues(r, codec, count, value_mode,
                                                  std::forward<Fn>(fn)));
  if (count_out) *count_out = count;
  return Status::OK();
}

}  // namespace dema::net
