#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/result.h"
#include "net/codec.h"
#include "net/serializer.h"

namespace dema::net {

/// Identifies a global/local window instance; windows of the same lifespan
/// share ids across nodes (id = window start time / window length).
using WindowId = uint64_t;

/// \brief Wire type tag of a message payload.
///
/// Dema-specific payloads (synopses, candidate protocol, gamma updates) are
/// declared in `dema/protocol.h`; they reuse this enum so the envelope stays
/// uniform across systems.
enum class MessageType : uint16_t {
  /// Batch of raw (optionally pre-sorted) events for one window.
  kEventBatch = 1,
  /// End-of-window marker from a local node (window id + event count).
  kWindowEnd = 2,
  /// Batch of Dema slice synopses for one window.
  kSynopsisBatch = 3,
  /// Root -> local request for the events of specific slices.
  kCandidateRequest = 4,
  /// Local -> root reply carrying candidate slice events.
  kCandidateReply = 5,
  /// Root -> local broadcast of a new slice factor gamma.
  kGammaUpdate = 6,
  /// Final aggregation result emitted by the root (for sinks / tests).
  kResult = 7,
  /// Serialized t-digest summary for one window (decentralized sketch mode).
  kSketchSummary = 8,
  /// Control: orderly shutdown of a node's run loop.
  kShutdown = 9,
  /// Data-stream node -> local node: event time has advanced to this instant
  /// (all of the sender's events up to it were shipped). The edge node's
  /// watermark is the minimum across its stream nodes.
  kTimeAdvance = 10,
  /// Local -> root request to re-learn the current slice factor after a
  /// restart (the root answers with a kGammaUpdate).
  kGammaSyncRequest = 11,
  /// Keyed local -> shard service: one frame batching the per-key
  /// kSynopsisBatch payloads of every key a (local, shard) pair closed for a
  /// window boundary (`net::KeyedBatch` envelope; see docs/SHARDING.md).
  kShardSynopsisBatch = 12,
  /// Shard service -> keyed local: batched per-key kCandidateRequest
  /// payloads (including empty release requests).
  kShardCandidateRequest = 13,
  /// Keyed local -> shard service: batched per-key kCandidateReply payloads.
  kShardCandidateReply = 14,
  /// Shard service -> keyed local: batched per-key kGammaUpdate payloads.
  kShardGammaUpdate = 15,
  /// Query client -> shard service: multi-key, multi-quantile snapshot query
  /// over the live result store (`net::KeyedQuery`).
  kShardQuery = 16,
  /// Shard service -> query client: per-key answers (`net::KeyedQueryReply`).
  kShardQueryReply = 17,
  /// Transport-internal liveness probe/echo (`net::Heartbeat`). Never enters
  /// node inboxes or the simulated fabric; excluded from link-traffic
  /// accounting so byte parity with the fabric stays exact.
  kHeartbeat = 18,
  /// Transport-internal cumulative delivery acknowledgement
  /// (`net::CumulativeAck`): the receive side's highest-contiguous sequence
  /// number per (src, dst) stream, freeing the sender's retained frames.
  /// Transport control, same accounting exclusion as `kHeartbeat`.
  kAck = 19,
};

/// \brief Returns a readable name for a message type, e.g. "EventBatch".
const char* MessageTypeToString(MessageType type);

/// Fixed per-message envelope overhead charged to the wire: an 18-byte
/// header (type + src + dst + sequence number + payload length) plus a
/// 4-byte CRC32C trailer covering header and payload, mirroring a small
/// framed TCP protocol (see `docs/PROTOCOL.md`, protocol version 4).
inline constexpr uint64_t kEnvelopeWireBytes =
    sizeof(uint16_t) + 2 * sizeof(NodeId) + 2 * sizeof(uint32_t) +
    /*crc32c trailer*/ sizeof(uint32_t);

/// \brief A framed message travelling between nodes.
///
/// The payload is already serialized; `WireBytes()` is the exact number of
/// bytes the link metrics charge for the transfer.
struct Message {
  MessageType type = MessageType::kShutdown;
  NodeId src = 0;
  NodeId dst = 0;
  /// Per-(src, dst) sequence number stamped by the transport, 1-based and
  /// monotonic per sender stream; 0 marks an unsequenced message. Receivers
  /// drop (src, seq) pairs they have already seen (`SeqDedup`) so
  /// at-least-once delivery stays exactly-once at the node logic.
  uint32_t seq = 0;
  /// Owned payload bytes (the send path and the in-process fabric). Empty
  /// when the message carries a borrowed view instead — read through
  /// `payload_bytes()`/`payload_data()`/`payload_size()`, which cover both.
  std::vector<uint8_t> payload;
  /// Processing-time instant the message was handed to the network (set by
  /// `Network::Send`; used for queueing statistics).
  TimestampUs send_time_us = 0;
  /// Raw events carried in the payload (metadata only, not on the wire);
  /// feeds the paper's event-count network-cost metric.
  uint64_t event_count = 0;

  /// Zero-copy receive path: the payload bytes live inside a shared arena
  /// block (one socket read holds many frames) instead of a per-message
  /// vector. `backing` pins the block alive for as long as any message views
  /// into it; decoders parse straight from the socket buffer, copy-free.
  /// Only `SetPayloadView` writes these.
  std::shared_ptr<const void> backing;

  /// Attaches a borrowed payload. \p owner must keep \p data alive.
  void SetPayloadView(std::shared_ptr<const void> owner, const uint8_t* data,
                      size_t size) {
    payload.clear();
    backing = std::move(owner);
    view_data_ = data;
    view_size_ = size;
  }

  /// The payload bytes, wherever they live (owned vector or arena view).
  ByteSpan payload_bytes() const { return {payload_data(), payload_size()}; }
  const uint8_t* payload_data() const {
    return backing ? view_data_ : payload.data();
  }
  size_t payload_size() const { return backing ? view_size_ : payload.size(); }

  /// Moves the payload out as an owned vector, copying once if it was a
  /// borrowed view (re-framing paths that ship the bytes onward need
  /// ownership; everything else should stay on `payload_bytes()`).
  std::vector<uint8_t> TakePayload() {
    if (!backing) return std::move(payload);
    std::vector<uint8_t> owned(view_data_, view_data_ + view_size_);
    backing.reset();
    view_data_ = nullptr;
    view_size_ = 0;
    return owned;
  }

  /// Materializes a borrowed view into the owned vector (mutation paths —
  /// e.g. the fabric's tamper injector — must not write into a shared arena
  /// block other messages still view). No-op for owned payloads.
  void EnsureOwnedPayload() {
    if (!backing) return;
    payload = TakePayload();
  }

  /// Total bytes on the wire: envelope + payload.
  uint64_t WireBytes() const { return kEnvelopeWireBytes + payload_size(); }

 private:
  const uint8_t* view_data_ = nullptr;
  size_t view_size_ = 0;
};

/// \brief Payload: a batch of events belonging to one window.
///
/// Used by the centralized baseline (all events to root), the Desis baseline
/// (sorted runs to root), and Dema's calculation step (candidate events).
struct EventBatch {
  WindowId window_id = 0;
  /// True when the events are sorted by the global event order.
  bool sorted = false;
  /// True when this is the final batch for (src, window_id).
  bool last_batch = false;
  /// Wire encoding for the event payload (serialize-side choice; the decoder
  /// reads whatever tag the stream carries).
  EventCodec codec = EventCodec::kFixed;
  std::vector<Event> events;

  /// Serializes this payload into \p w.
  void SerializeTo(Writer* w) const;
  /// Parses a payload from \p r.
  static Result<EventBatch> Deserialize(Reader* r);
  /// Raw events carried (for the envelope's event-count metadata).
  uint64_t WireEventCount() const { return events.size(); }

  /// Fast path for consumers that only need the measurement values (e.g. the
  /// sketch root): streams `fn(double value)` per event without
  /// materializing `Event` objects. Works for both wire codecs; the fixed
  /// codec uses a validated raw stride. Returns the number of events.
  template <typename Fn>
  static Result<uint64_t> ForEachValue(ByteSpan payload, Fn&& fn) {
    Reader r(payload);
    uint64_t window_id = 0;
    uint8_t sorted = 0, last = 0;
    DEMA_RETURN_NOT_OK(r.GetU64(&window_id));
    DEMA_RETURN_NOT_OK(r.GetU8(&sorted));
    DEMA_RETURN_NOT_OK(r.GetU8(&last));
    uint64_t count = 0;
    DEMA_RETURN_NOT_OK(ForEachEncodedValue(&r, std::forward<Fn>(fn), &count));
    return count;
  }

  /// Reads just the window id from a serialized payload (fast-path helper).
  static Result<WindowId> PeekWindowId(ByteSpan payload);
};

/// \brief Payload: end-of-window marker carrying the local window size.
///
/// Lets the root learn each local window's event count even when events were
/// streamed in multiple batches.
struct WindowEnd {
  WindowId window_id = 0;
  uint64_t local_window_size = 0;
  /// Processing-time instant the local window closed (latency metric input).
  TimestampUs close_time_us = 0;

  void SerializeTo(Writer* w) const;
  static Result<WindowEnd> Deserialize(Reader* r);
};

/// \brief Payload: transport-level liveness probe (`kHeartbeat`).
///
/// A ping carries the sender's monotonic send instant; the peer echoes it
/// back unchanged in a pong, so the pinger reads its per-peer RTT without
/// either side sharing a clock. Heartbeats are connection-scoped control
/// traffic: they are unsequenced (seq 0), never reach an inbox, and are
/// excluded from the link-traffic instruments.
struct Heartbeat {
  enum class Kind : uint8_t { kPing = 0, kPong = 1 };
  Kind kind = Kind::kPing;
  /// Pinger's monotonic clock at send time, echoed verbatim by the pong.
  TimestampUs probe_time_us = 0;

  void SerializeTo(Writer* w) const;
  static Result<Heartbeat> Deserialize(Reader* r);
};

/// \brief Payload: cumulative per-stream delivery acknowledgement (`kAck`).
///
/// Each entry acknowledges one (src, dst) sequence stream: every frame with
/// a serial number <= `cum_seq` (RFC 1982 comparison, within the epoch the
/// number's top byte names) has been received. Receivers coalesce all
/// streams that progressed during a read pass into one frame; senders drop
/// the acked prefix of their retained-frame window.
struct CumulativeAck {
  struct Entry {
    NodeId src = 0;
    NodeId dst = 0;
    /// Highest contiguously received sequence number of the stream.
    uint32_t cum_seq = 0;
  };
  std::vector<Entry> entries;

  void SerializeTo(Writer* w) const;
  static Result<CumulativeAck> Deserialize(Reader* r);
};

/// \brief Payload: a data-stream node's event-time progress marker.
struct TimeAdvance {
  /// All events with timestamp < watermark_us were shipped by the sender.
  TimestampUs watermark_us = 0;
  /// True on the sender's final marker (end of stream).
  bool final_marker = false;

  void SerializeTo(Writer* w) const;
  static Result<TimeAdvance> Deserialize(Reader* r);
};

/// Detects payloads that report a raw-event count for the cost metric.
template <typename P>
concept HasWireEventCount = requires(const P& p) {
  { p.WireEventCount() } -> std::convertible_to<uint64_t>;
};

/// \brief Convenience: frames \p payload-serializing function output into a
/// message of the given type.
template <typename Payload>
Message MakeMessage(MessageType type, NodeId src, NodeId dst, const Payload& p) {
  Writer w;
  p.SerializeTo(&w);
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.payload = w.TakeBuffer();
  if constexpr (HasWireEventCount<Payload>) {
    m.event_count = p.WireEventCount();
  }
  return m;
}

}  // namespace dema::net
