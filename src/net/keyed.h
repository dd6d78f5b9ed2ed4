#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/message.h"
#include "net/serializer.h"

namespace dema::net {

/// Identifies one tenant key (user, sensor, metric, ...) in a multi-tenant
/// keyed run. Keys are dense: a run with K keys uses ids 0..K-1.
using KeyId = uint64_t;

/// \brief One per-key entry of a serialized keyed batch, viewed in place.
///
/// `payload` is the serialized single-key protocol message (kSynopsisBatch,
/// kCandidateRequest, kCandidateReply, or kGammaUpdate — whichever the outer
/// frame's type maps to via `KeyedInnerType`), byte-identical to what an
/// unsharded run would put on the wire for that key. It borrows the frame's
/// bytes.
struct KeyedEntryView {
  KeyId key = 0;
  ByteSpan payload;
};

// Keyed batch wire format (one per (local, shard) pair and protocol step):
//
//   shard u32 | entry_count u32 | entry_count x (key u64 | len u32 | payload)
//
// All synopsis/candidate/gamma traffic of a (local, shard) pair for one
// protocol step travels as a single frame: one CRC-protected envelope, one
// sequence number, one entry per key. The inner payloads reuse the
// single-key wire formats unchanged, so per-key validation and quarantine
// run the single-key code path on each entry.

/// \brief Zero-copy reader over a serialized keyed batch.
///
/// `Open` walks every entry header once and rejects the whole frame — a
/// truncated entry, a length past the end, trailing bytes — before the
/// caller sees any entry, so a malformed frame is never half-applied. The
/// entries are then handed out as views into \p payload, which must outlive
/// the reader.
class KeyedBatchReader {
 public:
  static Result<KeyedBatchReader> Open(ByteSpan payload);

  /// Reads just the shard index from a serialized payload (routing fast
  /// path: the service picks the strand before decoding entries).
  static Result<uint32_t> PeekShard(ByteSpan payload);

  /// Shard index the entries belong to (every entry's key must map to it).
  uint32_t shard() const { return shard_; }
  /// Number of entries.
  uint32_t size() const { return count_; }

  /// Fills \p entry with the next entry in wire order; false after the last.
  bool Next(KeyedEntryView* entry);

 private:
  KeyedBatchReader(ByteSpan payload, uint32_t shard, uint32_t count)
      : payload_(payload), shard_(shard), count_(count) {}

  ByteSpan payload_;
  uint32_t shard_ = 0;
  uint32_t count_ = 0;
  uint32_t read_ = 0;
  /// Offset of the next unread entry header.
  size_t pos_ = 2 * sizeof(uint32_t);
};

/// \brief Builds one keyed batch in place: each per-key payload serializes
/// straight into the frame buffer, behind its key and length prefix.
class KeyedBatchWriter {
 public:
  explicit KeyedBatchWriter(uint32_t shard) : shard_(shard) { Start(); }

  /// Appends \p payload (any protocol struct with `SerializeTo`) as key
  /// \p key's entry.
  template <typename Payload>
  void Add(KeyId key, const Payload& payload) {
    const size_t len_at = BeginEntry(key);
    payload.SerializeTo(&w_);
    EndEntry(len_at);
    if constexpr (HasWireEventCount<Payload>) {
      event_count_ += payload.WireEventCount();
    }
  }

  /// Appends already-serialized bytes as key \p key's entry, carrying
  /// \p event_count raw events (envelope metadata).
  void AddBytes(KeyId key, ByteSpan payload, uint64_t event_count);

  /// Entries added since the last `Finish`.
  uint32_t size() const { return count_; }

  /// Frames the batch as one message of type \p type (the frame's raw
  /// event total becomes `Message::event_count`) and restarts the writer
  /// empty for the same shard.
  Message Finish(MessageType type, NodeId src, NodeId dst);

 private:
  void Start();
  size_t BeginEntry(KeyId key);
  void EndEntry(size_t len_at);

  uint32_t shard_;
  Writer w_;
  uint32_t count_ = 0;
  uint64_t event_count_ = 0;
  /// Size of the last finished frame; the next one reserves as much.
  size_t last_size_ = 0;
};

/// Byte offset of the first entry's inner payload inside a serialized keyed
/// batch (shard u32 + count u32 + key u64 + length u32). The fabric's
/// tamper injector uses it to corrupt exactly one key's traffic while the
/// frame checksum stays valid.
inline constexpr size_t kKeyedFirstPayloadOffset =
    sizeof(uint32_t) + sizeof(uint32_t) + sizeof(KeyId) + sizeof(uint32_t);

/// The single-key message type carried by a keyed envelope of type \p outer,
/// or an error for non-keyed types.
Result<MessageType> KeyedInnerType(MessageType outer);

/// The keyed envelope type that batches inner messages of type \p inner, or
/// an error for types that are never batched.
Result<MessageType> KeyedOuterType(MessageType inner);

/// \brief Query payload: multi-key, multi-quantile lookup against the shard
/// service's live result store.
struct KeyedQuery {
  /// Client-chosen correlation id, echoed in the reply.
  uint64_t query_id = 0;
  /// Keys to answer (any order, duplicates allowed).
  std::vector<KeyId> keys;
  /// Quantiles to return per key; must be a subset of the quantile set the
  /// service computes (it holds exact answers only for those). Empty = all
  /// configured quantiles.
  std::vector<double> quantiles;

  void SerializeTo(Writer* w) const;
  static Result<KeyedQuery> Deserialize(Reader* r);
};

/// \brief One key's answer inside a `KeyedQueryReply`.
struct KeyedAnswer {
  KeyId key = 0;
  /// False when the key has not emitted any window yet (remaining fields
  /// are zero). Unknown keys fail the whole query instead.
  bool found = false;
  /// Window the values belong to (the key's latest published window).
  WindowId window_id = 0;
  uint64_t global_size = 0;
  bool degraded = false;
  uint64_t rank_error_bound = 0;
  /// Values parallel to the query's (resolved) quantile list.
  std::vector<double> values;
};

/// \brief Reply payload: per-key answers, read shard-atomically (all keys of
/// one shard are answered from a single locked snapshot of that shard's
/// store stripe).
struct KeyedQueryReply {
  uint64_t query_id = 0;
  /// Empty on success; a human-readable rejection otherwise (unknown key,
  /// unconfigured quantile) with every `answers` entry absent.
  std::string error;
  /// Quantiles the values are reported for (the resolved subset).
  std::vector<double> quantiles;
  std::vector<KeyedAnswer> answers;

  void SerializeTo(Writer* w) const;
  static Result<KeyedQueryReply> Deserialize(Reader* r);
};

}  // namespace dema::net
