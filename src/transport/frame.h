#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "net/message.h"

namespace dema::transport {

/// \brief Wire framing for the TCP transport (protocol version 4).
///
/// A frame is the simulated envelope split around the payload:
///
///   u16 type | u32 src | u32 dst | u32 seq | u32 payload_size |
///   payload bytes | u32 crc32c
///
/// The CRC32C trailer covers header + payload, so bit flips anywhere in the
/// frame are detected before the payload reaches a decoder. Header + trailer
/// together equal `net::kEnvelopeWireBytes`, so a frame still occupies
/// exactly `Message::WireBytes()` bytes on the socket — the TCP transport's
/// measured per-link byte counters stay directly comparable to the
/// in-process fabric's accounting (and to the paper's Fig. 6 numbers).
/// The fixed header doubles as the length prefix: a receiver reads
/// `kFrameHeaderBytes`, validates, reads `payload_size` more bytes, then the
/// trailer.
inline constexpr size_t kFrameTrailerBytes = sizeof(uint32_t);
inline constexpr size_t kFrameHeaderBytes =
    net::kEnvelopeWireBytes - kFrameTrailerBytes;

/// \brief Decoded frame header (the envelope fields).
struct FrameHeader {
  net::MessageType type = net::MessageType::kShutdown;
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t seq = 0;
  uint32_t payload_size = 0;
};

/// True when \p raw is a defined `MessageType` value.
bool IsKnownMessageType(uint16_t raw);

/// \brief Appends the frame for \p m (header + payload + CRC trailer) to
/// \p out.
///
/// Exactly `m.WireBytes()` bytes are appended.
void EncodeFrame(const net::Message& m, std::vector<uint8_t>* out);

/// \brief CRC32C over a frame's header and payload (the trailer's expected
/// value). The regions may be discontiguous, as on the receive path.
uint32_t ComputeFrameCrc(const uint8_t* header, size_t header_size,
                         const uint8_t* payload, size_t payload_size);

/// \brief Checks a received frame's CRC trailer against header + payload.
///
/// \p trailer points at the `kFrameTrailerBytes` checksum bytes. Fails with
/// `SerializationError` on a mismatch — the caller drops the frame (framing
/// is intact; the connection survives) and counts it in `net.corrupted`.
Status VerifyFrameCrc(const uint8_t* header, size_t header_size,
                      const uint8_t* payload, size_t payload_size,
                      const uint8_t* trailer);

/// \brief Parses and validates a frame header from \p data.
///
/// Fails on short buffers, unknown message types, and payload sizes above
/// \p max_payload (protocol-error defence: a corrupt length prefix must not
/// drive a huge allocation).
Status DecodeFrameHeader(const uint8_t* data, size_t size, uint32_t max_payload,
                         FrameHeader* out);

/// \brief Recovers the raw-event count metadata of a received message.
///
/// `Message::event_count` is sender-side metadata and not part of the wire
/// format, so a receiver reconstructs it by peeking the payload of the two
/// event-carrying message types (EventBatch, CandidateReply). The declared
/// count is cross-checked against the actual encoded event stream — a
/// mismatch (count lies about the bytes that follow) fails the decode
/// rather than poisoning downstream accounting. Returns 0 for every other
/// type; fails only on a corrupt event-carrying payload.
Result<uint64_t> PeekEventCount(net::MessageType type, net::ByteSpan payload);

// --- connection handshake ----------------------------------------------------

/// First bytes on every dialed connection: magic, protocol version, then the
/// dialer's hosted node ids (u32 magic | u32 version | u32 count |
/// count * u32 id). The acceptor uses the ids to route replies back over the
/// same connection, so only one side of a star topology needs configured
/// addresses. Version mismatches are rejected at accept time, before any
/// frame is parsed — a v1 peer (no version field, no CRC trailers) fails
/// cleanly here instead of desynchronizing the frame stream.
inline constexpr uint32_t kHelloMagic = 0x44454D41;  // "DEMA"

/// Wire protocol version. v1: 18-byte envelope, no checksum, 2-field hello.
/// v2: CRC32C frame trailer, 3-field hello with version negotiation.
/// v3: session resilience — kHeartbeat/kAck control frames, cumulative
/// per-(src,dst) acks, and sender-side retained-frame replay across
/// reconnects (a v2 peer would reject the new frame types mid-stream, so
/// the handshake keeps versions strict).
/// v4: a `SynopsisBatch` cut at γ = 2 ships as its sorted events (a form
/// marker in the v3 slice-count word), and a slice of at most two events is
/// read from its synopsis, never requested or retained. A v3 peer would
/// misread the events form and disagree about which windows it must serve.
inline constexpr uint32_t kProtocolVersion = 4;

/// Upper bound on hello node counts (defence against corrupt preambles).
inline constexpr uint32_t kMaxHelloNodes = 1u << 16;

/// \brief Appends the hello preamble announcing \p nodes to \p out.
void EncodeHello(const std::vector<NodeId>& nodes, std::vector<uint8_t>* out);

/// Bytes of the fixed hello prefix (magic + version + count).
inline constexpr size_t kHelloPrefixBytes = 3 * sizeof(uint32_t);

/// \brief Parses the fixed hello prefix; returns the announced node count.
Result<uint32_t> DecodeHelloPrefix(const uint8_t* data, size_t size);

/// \brief Parses \p count node ids following the hello prefix.
Result<std::vector<NodeId>> DecodeHelloNodes(const uint8_t* data, size_t size,
                                             uint32_t count);

}  // namespace dema::transport
