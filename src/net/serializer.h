#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/status.h"

namespace dema::net {

/// Borrowed, read-only view of serialized bytes. The zero-copy decode
/// contract: a span never owns its bytes — whoever hands one out guarantees
/// the backing buffer outlives every read through it (for received messages,
/// `Message` pins the arena block; see `Message::payload_bytes()`).
using ByteSpan = std::span<const uint8_t>;

/// \brief Append-only binary encoder (little-endian, fixed width).
///
/// All inter-node messages are serialized to bytes before they enter a
/// channel; the byte count of the resulting buffer is exactly what the
/// network metrics charge to the link, so "network cost" numbers reflect an
/// honest wire format rather than in-memory object sizes.
class Writer {
 public:
  /// The encoded bytes so far.
  const std::vector<uint8_t>& buffer() const { return buf_; }
  /// Moves the encoded bytes out of the writer.
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  /// Number of bytes written so far.
  size_t size() const { return buf_.size(); }
  /// Pre-allocates room for \p n bytes in total.
  void Reserve(size_t n) { buf_.reserve(n); }

  /// Appends an unsigned 8-bit integer.
  void PutU8(uint8_t v) { buf_.push_back(v); }
  /// Appends an unsigned 16-bit integer.
  void PutU16(uint16_t v) { PutFixed(&v, sizeof(v)); }
  /// Appends an unsigned 32-bit integer.
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  /// Appends an unsigned 64-bit integer.
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  /// Appends a signed 64-bit integer.
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }
  /// Appends an IEEE-754 double.
  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }
  /// Appends a length-prefixed string.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Appends \p n raw bytes (no length prefix; the caller owns framing).
  void PutBytes(const uint8_t* p, size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }
  /// Appends an unsigned LEB128 varint (1 byte for values < 128).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }
  /// Appends a zigzag-encoded signed varint (small magnitudes stay small).
  void PutZigzag(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }
  /// Appends one event (value, timestamp, node, seq).
  void PutEvent(const Event& e) {
    PutDouble(e.value);
    PutI64(e.timestamp);
    PutU32(e.node);
    PutU32(e.seq);
  }
  /// Appends a length-prefixed vector of events.
  void PutEvents(const std::vector<Event>& events) {
    PutU32(static_cast<uint32_t>(events.size()));
    for (const Event& e : events) PutEvent(e);
  }
  /// Overwrites the 32-bit integer written at byte \p offset (a length or
  /// count prefix reserved before its value was known).
  void PatchU32(size_t offset, uint32_t v) {
    std::memcpy(buf_.data() + offset, &v, sizeof(v));
  }

 private:
  void PutFixed(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

/// \brief Sequential binary decoder matching `Writer`.
///
/// Every `Get*` returns a Status so truncated or corrupt buffers surface as
/// `SerializationError` instead of undefined behaviour.
class Reader {
 public:
  /// Wraps \p data (not owned; must outlive the reader).
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  /// Wraps a byte vector (not owned; must outlive the reader).
  explicit Reader(const std::vector<uint8_t>& buf) : Reader(buf.data(), buf.size()) {}
  /// Wraps a borrowed span (not owned; the backing must outlive the reader).
  explicit Reader(ByteSpan bytes) : Reader(bytes.data(), bytes.size()) {}

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  /// Pointer to the next unconsumed byte (for validated bulk fast paths).
  const uint8_t* raw() const { return data_ + pos_; }
  /// Advances past \p n bytes; fails when fewer remain.
  Status Skip(size_t n) {
    if (pos_ + n > size_) {
      return Status::SerializationError("skip past end of buffer");
    }
    pos_ += n;
    return Status::OK();
  }
  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return pos_ == size_; }

  /// Reads an unsigned 8-bit integer into \p out.
  Status GetU8(uint8_t* out) { return GetFixed(out, sizeof(*out)); }
  /// Reads an unsigned 16-bit integer into \p out.
  Status GetU16(uint16_t* out) { return GetFixed(out, sizeof(*out)); }
  /// Reads an unsigned 32-bit integer into \p out.
  Status GetU32(uint32_t* out) { return GetFixed(out, sizeof(*out)); }
  /// Reads an unsigned 64-bit integer into \p out.
  Status GetU64(uint64_t* out) { return GetFixed(out, sizeof(*out)); }
  /// Reads a signed 64-bit integer into \p out.
  Status GetI64(int64_t* out) { return GetFixed(out, sizeof(*out)); }
  /// Reads an IEEE-754 double into \p out.
  Status GetDouble(double* out) { return GetFixed(out, sizeof(*out)); }
  /// Reads a length-prefixed string into \p out.
  Status GetString(std::string* out);
  /// Reads an unsigned LEB128 varint into \p out.
  Status GetVarint(uint64_t* out);
  /// Reads a zigzag-encoded signed varint into \p out.
  Status GetZigzag(int64_t* out);
  /// Reads one event into \p out.
  Status GetEvent(Event* out);
  /// Reads a length-prefixed vector of events into \p out.
  Status GetEvents(std::vector<Event>* out);

 private:
  Status GetFixed(void* p, size_t n) {
    if (pos_ + n > size_) {
      return Status::SerializationError("buffer underflow: need " +
                                        std::to_string(n) + " bytes, have " +
                                        std::to_string(size_ - pos_));
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace dema::net
