#include "net/keyed.h"

#include <algorithm>
#include <cstring>

namespace dema::net {

namespace {

/// Key + length prefix in front of every entry's payload.
constexpr size_t kEntryHeaderBytes = sizeof(KeyId) + sizeof(uint32_t);
constexpr size_t kBatchHeaderBytes = 2 * sizeof(uint32_t);

}  // namespace

Result<KeyedBatchReader> KeyedBatchReader::Open(ByteSpan payload) {
  Reader r(payload);
  uint32_t shard = 0;
  uint32_t count = 0;
  DEMA_RETURN_NOT_OK(r.GetU32(&shard));
  DEMA_RETURN_NOT_OK(r.GetU32(&count));
  // Every entry needs at least its key + length prefix; reject counts the
  // remaining buffer cannot possibly hold before walking them.
  if (static_cast<size_t>(count) * kEntryHeaderBytes > r.remaining()) {
    return Status::SerializationError("entry count exceeds remaining buffer");
  }
  for (uint32_t i = 0; i < count; ++i) {
    DEMA_RETURN_NOT_OK(r.Skip(sizeof(KeyId)));
    uint32_t len = 0;
    DEMA_RETURN_NOT_OK(r.GetU32(&len));
    if (len > r.remaining()) {
      return Status::SerializationError("entry payload exceeds remaining buffer");
    }
    DEMA_RETURN_NOT_OK(r.Skip(len));
  }
  if (!r.AtEnd()) {
    return Status::SerializationError("trailing bytes after keyed batch");
  }
  return KeyedBatchReader(payload, shard, count);
}

Result<uint32_t> KeyedBatchReader::PeekShard(ByteSpan payload) {
  if (payload.size() < sizeof(uint32_t)) {
    return Status::SerializationError("keyed batch header truncated");
  }
  uint32_t shard = 0;
  std::memcpy(&shard, payload.data(), sizeof(shard));
  return shard;
}

bool KeyedBatchReader::Next(KeyedEntryView* entry) {
  if (read_ == count_) return false;
  // `Open` validated every header and length, so no bounds checks here.
  const uint8_t* p = payload_.data() + pos_;
  uint32_t len = 0;
  std::memcpy(&entry->key, p, sizeof(KeyId));
  std::memcpy(&len, p + sizeof(KeyId), sizeof(len));
  entry->payload = payload_.subspan(pos_ + kEntryHeaderBytes, len);
  pos_ += kEntryHeaderBytes + len;
  ++read_;
  return true;
}

void KeyedBatchWriter::Start() {
  w_.Reserve(std::max(last_size_, kBatchHeaderBytes));
  w_.PutU32(shard_);
  w_.PutU32(0);  // entry count, patched by Finish
  count_ = 0;
  event_count_ = 0;
}

size_t KeyedBatchWriter::BeginEntry(KeyId key) {
  w_.PutU64(key);
  const size_t len_at = w_.size();
  w_.PutU32(0);  // payload length, patched by EndEntry
  return len_at;
}

void KeyedBatchWriter::EndEntry(size_t len_at) {
  w_.PatchU32(len_at,
              static_cast<uint32_t>(w_.size() - len_at - sizeof(uint32_t)));
  ++count_;
}

void KeyedBatchWriter::AddBytes(KeyId key, ByteSpan payload,
                                uint64_t event_count) {
  const size_t len_at = BeginEntry(key);
  w_.PutBytes(payload.data(), payload.size());
  EndEntry(len_at);
  event_count_ += event_count;
}

Message KeyedBatchWriter::Finish(MessageType type, NodeId src, NodeId dst) {
  w_.PatchU32(sizeof(uint32_t), count_);
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.event_count = event_count_;
  last_size_ = w_.size();
  m.payload = w_.TakeBuffer();
  w_ = Writer();
  Start();
  return m;
}

Result<MessageType> KeyedInnerType(MessageType outer) {
  switch (outer) {
    case MessageType::kShardSynopsisBatch:
      return MessageType::kSynopsisBatch;
    case MessageType::kShardCandidateRequest:
      return MessageType::kCandidateRequest;
    case MessageType::kShardCandidateReply:
      return MessageType::kCandidateReply;
    case MessageType::kShardGammaUpdate:
      return MessageType::kGammaUpdate;
    default:
      return Status::InvalidArgument(std::string(MessageTypeToString(outer)) +
                                     " is not a keyed envelope type");
  }
}

Result<MessageType> KeyedOuterType(MessageType inner) {
  switch (inner) {
    case MessageType::kSynopsisBatch:
      return MessageType::kShardSynopsisBatch;
    case MessageType::kCandidateRequest:
      return MessageType::kShardCandidateRequest;
    case MessageType::kCandidateReply:
      return MessageType::kShardCandidateReply;
    case MessageType::kGammaUpdate:
      return MessageType::kShardGammaUpdate;
    default:
      return Status::InvalidArgument(std::string(MessageTypeToString(inner)) +
                                     " is never carried inside a keyed envelope");
  }
}

void KeyedQuery::SerializeTo(Writer* w) const {
  w->PutU64(query_id);
  w->PutU32(static_cast<uint32_t>(keys.size()));
  for (KeyId k : keys) w->PutU64(k);
  w->PutU32(static_cast<uint32_t>(quantiles.size()));
  for (double q : quantiles) w->PutDouble(q);
}

Result<KeyedQuery> KeyedQuery::Deserialize(Reader* r) {
  KeyedQuery q;
  DEMA_RETURN_NOT_OK(r->GetU64(&q.query_id));
  uint32_t nk = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&nk));
  if (static_cast<size_t>(nk) * sizeof(KeyId) > r->remaining()) {
    return Status::SerializationError("key count exceeds remaining buffer");
  }
  q.keys.reserve(nk);
  for (uint32_t i = 0; i < nk; ++i) {
    KeyId k = 0;
    DEMA_RETURN_NOT_OK(r->GetU64(&k));
    q.keys.push_back(k);
  }
  uint32_t nq = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&nq));
  if (static_cast<size_t>(nq) * sizeof(double) > r->remaining()) {
    return Status::SerializationError("quantile count exceeds remaining buffer");
  }
  q.quantiles.reserve(nq);
  for (uint32_t i = 0; i < nq; ++i) {
    double v = 0;
    DEMA_RETURN_NOT_OK(r->GetDouble(&v));
    q.quantiles.push_back(v);
  }
  return q;
}

void KeyedQueryReply::SerializeTo(Writer* w) const {
  w->PutU64(query_id);
  w->PutString(error);
  w->PutU32(static_cast<uint32_t>(quantiles.size()));
  for (double q : quantiles) w->PutDouble(q);
  w->PutU32(static_cast<uint32_t>(answers.size()));
  for (const KeyedAnswer& a : answers) {
    w->PutU64(a.key);
    w->PutU8(a.found ? 1 : 0);
    w->PutU64(a.window_id);
    w->PutU64(a.global_size);
    w->PutU8(a.degraded ? 1 : 0);
    w->PutU64(a.rank_error_bound);
    w->PutU32(static_cast<uint32_t>(a.values.size()));
    for (double v : a.values) w->PutDouble(v);
  }
}

Result<KeyedQueryReply> KeyedQueryReply::Deserialize(Reader* r) {
  KeyedQueryReply rep;
  DEMA_RETURN_NOT_OK(r->GetU64(&rep.query_id));
  DEMA_RETURN_NOT_OK(r->GetString(&rep.error));
  uint32_t nq = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&nq));
  if (static_cast<size_t>(nq) * sizeof(double) > r->remaining()) {
    return Status::SerializationError("quantile count exceeds remaining buffer");
  }
  rep.quantiles.reserve(nq);
  for (uint32_t i = 0; i < nq; ++i) {
    double v = 0;
    DEMA_RETURN_NOT_OK(r->GetDouble(&v));
    rep.quantiles.push_back(v);
  }
  uint32_t na = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&na));
  constexpr size_t kMinAnswerBytes =
      3 * sizeof(uint64_t) + 2 * sizeof(uint8_t) + 2 * sizeof(uint32_t);
  if (static_cast<size_t>(na) * kMinAnswerBytes > r->remaining()) {
    return Status::SerializationError("answer count exceeds remaining buffer");
  }
  rep.answers.reserve(na);
  for (uint32_t i = 0; i < na; ++i) {
    KeyedAnswer a;
    DEMA_RETURN_NOT_OK(r->GetU64(&a.key));
    uint8_t found = 0, degraded = 0;
    DEMA_RETURN_NOT_OK(r->GetU8(&found));
    DEMA_RETURN_NOT_OK(r->GetU64(&a.window_id));
    DEMA_RETURN_NOT_OK(r->GetU64(&a.global_size));
    DEMA_RETURN_NOT_OK(r->GetU8(&degraded));
    DEMA_RETURN_NOT_OK(r->GetU64(&a.rank_error_bound));
    a.found = found != 0;
    a.degraded = degraded != 0;
    uint32_t nv = 0;
    DEMA_RETURN_NOT_OK(r->GetU32(&nv));
    if (static_cast<size_t>(nv) * sizeof(double) > r->remaining()) {
      return Status::SerializationError("value count exceeds remaining buffer");
    }
    a.values.reserve(nv);
    for (uint32_t j = 0; j < nv; ++j) {
      double v = 0;
      DEMA_RETURN_NOT_OK(r->GetDouble(&v));
      a.values.push_back(v);
    }
    rep.answers.push_back(std::move(a));
  }
  return rep;
}

}  // namespace dema::net
