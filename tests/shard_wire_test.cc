// Wire-format and configuration tests for the keyed sharding layer: keyed
// envelope round-trips through the view codec, the strict outer<->inner
// type mapping, the shard routing fast path, and the fail-fast config
// validation (shard/worker counts of 0 must be rejected, never silently
// clamped).

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "dema/protocol.h"
#include "net/keyed.h"
#include "net/message.h"
#include "net/serializer.h"
#include "shard/config.h"
#include "shard/key.h"

namespace dema {
namespace {

using net::KeyedAnswer;
using net::KeyedBatchReader;
using net::KeyedBatchWriter;
using net::KeyedEntryView;
using net::KeyedQuery;
using net::KeyedQueryReply;
using net::MessageType;
using net::Reader;
using net::Writer;

/// Serialized keyed batch of shard \p shard holding \p entries.
std::vector<uint8_t> Frame(uint32_t shard,
                           const std::vector<std::pair<net::KeyId,
                                                       std::vector<uint8_t>>>&
                               entries) {
  KeyedBatchWriter writer(shard);
  for (const auto& [key, payload] : entries) writer.AddBytes(key, payload, 0);
  return writer.Finish(MessageType::kShardSynopsisBatch, 1, 0).payload;
}

std::vector<uint8_t> Bytes(net::ByteSpan span) {
  return std::vector<uint8_t>(span.begin(), span.end());
}

TEST(KeyedBatchWire, RoundTrip) {
  KeyedBatchWriter writer(7);
  writer.AddBytes(42, std::vector<uint8_t>{1, 2, 3, 4}, 12000);
  writer.AddBytes(~0ull - 5, {}, 0);
  writer.AddBytes(0, std::vector<uint8_t>{0xff}, 345);
  net::Message frame =
      writer.Finish(MessageType::kShardCandidateReply, /*src=*/2, /*dst=*/0);
  EXPECT_EQ(frame.type, MessageType::kShardCandidateReply);
  EXPECT_EQ(frame.src, 2u);
  // event_count is envelope metadata (carried by net::Message), never
  // serialized into the payload itself.
  EXPECT_EQ(frame.event_count, 12345u);
  EXPECT_EQ(writer.size(), 0u) << "Finish restarts the writer empty";

  auto batch = KeyedBatchReader::Open(frame.payload_bytes());
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->shard(), 7u);
  ASSERT_EQ(batch->size(), 3u);
  KeyedEntryView e;
  ASSERT_TRUE(batch->Next(&e));
  EXPECT_EQ(e.key, 42u);
  EXPECT_EQ(Bytes(e.payload), (std::vector<uint8_t>{1, 2, 3, 4}));
  ASSERT_TRUE(batch->Next(&e));
  EXPECT_EQ(e.key, ~0ull - 5);
  EXPECT_TRUE(e.payload.empty());
  ASSERT_TRUE(batch->Next(&e));
  EXPECT_EQ(e.key, 0u);
  EXPECT_EQ(Bytes(e.payload), (std::vector<uint8_t>{0xff}));
  EXPECT_FALSE(batch->Next(&e));

  // The writer is reusable: the next frame starts from an empty batch.
  writer.AddBytes(5, std::vector<uint8_t>{9}, 1);
  net::Message second = writer.Finish(MessageType::kShardCandidateReply, 2, 0);
  EXPECT_EQ(second.payload, Frame(7, {{5, {9}}}));
  EXPECT_EQ(second.event_count, 1u);
}

TEST(KeyedBatchWire, TypedEntryIsTheSingleKeyPayload) {
  // A payload serialized straight into the batch is byte-identical to the
  // single-key message an unsharded run sends.
  core::CandidateRequest req;
  req.window_id = 9;
  req.slice_indices = {0, 3, 4};
  KeyedBatchWriter writer(1);
  writer.Add(11, req);
  net::Message frame = writer.Finish(MessageType::kShardCandidateRequest, 0, 1);
  auto batch = KeyedBatchReader::Open(frame.payload_bytes());
  ASSERT_TRUE(batch.ok()) << batch.status();
  KeyedEntryView e;
  ASSERT_TRUE(batch->Next(&e));
  EXPECT_EQ(e.key, 11u);
  EXPECT_EQ(Bytes(e.payload),
            net::MakeMessage(MessageType::kCandidateRequest, 0, 1, req).payload);
}

TEST(KeyedBatchWire, PeekShardMatchesFullDecode) {
  const std::vector<uint8_t> frame = Frame(31, {{9, {5, 6}}});
  auto peeked = KeyedBatchReader::PeekShard(frame);
  ASSERT_TRUE(peeked.ok()) << peeked.status();
  EXPECT_EQ(*peeked, 31u);
  auto batch = KeyedBatchReader::Open(frame);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->shard(), *peeked);
}

TEST(KeyedBatchWire, PeekShardRejectsTruncatedPayload) {
  std::vector<uint8_t> tiny{1, 2};
  EXPECT_FALSE(KeyedBatchReader::PeekShard(tiny).ok());
}

TEST(KeyedBatchWire, DeserializeRejectsTruncatedEntry) {
  const std::vector<uint8_t> frame = Frame(1, {{2, {7}}, {3, {9, 9, 9, 9}}});
  ASSERT_TRUE(KeyedBatchReader::Open(frame).ok());
  // The last entry loses two payload bytes: the whole frame is rejected,
  // including the intact first entry.
  std::vector<uint8_t> cut(frame.begin(), frame.end() - 2);
  EXPECT_FALSE(KeyedBatchReader::Open(cut).ok());
  // Trailing bytes after the last entry reject the frame too.
  std::vector<uint8_t> padded = frame;
  padded.push_back(0);
  EXPECT_FALSE(KeyedBatchReader::Open(padded).ok());
  // So does an entry count the buffer cannot hold.
  std::vector<uint8_t> inflated = frame;
  inflated[4] = 200;
  EXPECT_FALSE(KeyedBatchReader::Open(inflated).ok());
}

TEST(KeyedBatchWire, FirstPayloadOffsetIsWhereTheInnerBytesStart) {
  const std::vector<uint8_t> frame = Frame(3, {{77, {0xAB, 0xCD}}});
  ASSERT_GT(frame.size(), net::kKeyedFirstPayloadOffset + 1);
  EXPECT_EQ(frame[net::kKeyedFirstPayloadOffset], 0xAB);
  EXPECT_EQ(frame[net::kKeyedFirstPayloadOffset + 1], 0xCD);
}

TEST(KeyedTypeMapping, OuterAndInnerAreStrictInverses) {
  const std::pair<MessageType, MessageType> pairs[] = {
      {MessageType::kShardSynopsisBatch, MessageType::kSynopsisBatch},
      {MessageType::kShardCandidateRequest, MessageType::kCandidateRequest},
      {MessageType::kShardCandidateReply, MessageType::kCandidateReply},
      {MessageType::kShardGammaUpdate, MessageType::kGammaUpdate},
  };
  for (auto [outer, inner] : pairs) {
    auto got_inner = net::KeyedInnerType(outer);
    ASSERT_TRUE(got_inner.ok()) << got_inner.status();
    EXPECT_EQ(*got_inner, inner);
    auto got_outer = net::KeyedOuterType(inner);
    ASSERT_TRUE(got_outer.ok()) << got_outer.status();
    EXPECT_EQ(*got_outer, outer);
  }
  // Non-keyed / non-batchable types must be rejected, not defaulted.
  EXPECT_FALSE(net::KeyedInnerType(MessageType::kSynopsisBatch).ok());
  EXPECT_FALSE(net::KeyedInnerType(MessageType::kShardQuery).ok());
  EXPECT_FALSE(net::KeyedOuterType(MessageType::kShardSynopsisBatch).ok());
  EXPECT_FALSE(net::KeyedOuterType(MessageType::kShutdown).ok());
}

TEST(KeyedQueryWire, RoundTrip) {
  KeyedQuery q;
  q.query_id = 0xDEADBEEF;
  q.keys = {5, 0, 5, 99999};
  q.quantiles = {0.5, 0.99};
  Writer w;
  q.SerializeTo(&w);
  Reader r(w.buffer());
  auto out = KeyedQuery::Deserialize(&r);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->query_id, 0xDEADBEEFu);
  EXPECT_EQ(out->keys, q.keys);
  EXPECT_EQ(out->quantiles, q.quantiles);
}

TEST(KeyedQueryReplyWire, RoundTrip) {
  KeyedQueryReply reply;
  reply.query_id = 17;
  reply.quantiles = {0.5};
  KeyedAnswer a;
  a.key = 12;
  a.found = true;
  a.window_id = 4;
  a.global_size = 4000;
  a.degraded = true;
  a.rank_error_bound = 37;
  a.values = {123.25};
  reply.answers.push_back(a);
  KeyedAnswer missing;
  missing.key = 13;
  reply.answers.push_back(missing);

  Writer w;
  reply.SerializeTo(&w);
  Reader r(w.buffer());
  auto out = KeyedQueryReply::Deserialize(&r);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->query_id, 17u);
  EXPECT_TRUE(out->error.empty());
  ASSERT_EQ(out->answers.size(), 2u);
  EXPECT_TRUE(out->answers[0].found);
  EXPECT_EQ(out->answers[0].window_id, 4u);
  EXPECT_EQ(out->answers[0].global_size, 4000u);
  EXPECT_TRUE(out->answers[0].degraded);
  EXPECT_EQ(out->answers[0].rank_error_bound, 37u);
  EXPECT_EQ(out->answers[0].values, std::vector<double>{123.25});
  EXPECT_FALSE(out->answers[1].found);
}

TEST(KeyedQueryReplyWire, ErrorRoundTrip) {
  KeyedQueryReply reply;
  reply.query_id = 3;
  reply.error = "unknown key 999";
  Writer w;
  reply.SerializeTo(&w);
  Reader r(w.buffer());
  auto out = KeyedQueryReply::Deserialize(&r);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->error, "unknown key 999");
  EXPECT_TRUE(out->answers.empty());
}

TEST(ShardOfKey, StableAndInRange) {
  for (uint32_t shards : {1u, 2u, 4u, 16u}) {
    for (net::KeyId key = 0; key < 1000; ++key) {
      uint32_t s = shard::ShardOfKey(key, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard::ShardOfKey(key, shards)) << "must be deterministic";
    }
  }
}

TEST(ShardOfKey, SpreadsDenseKeysAcrossShards) {
  // Dense ids 0..K-1 must not collapse onto one shard (a plain `key % n`
  // would pass too, but the mixer must at least not do worse).
  constexpr uint32_t kShards = 8;
  std::vector<uint64_t> per_shard(kShards, 0);
  for (net::KeyId key = 0; key < 10000; ++key) {
    per_shard[shard::ShardOfKey(key, kShards)]++;
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(per_shard[s], 10000 / kShards / 2)
        << "shard " << s << " is starved";
  }
}

// --- fail-fast config validation (satellite: no silent fallbacks) ---

TEST(ShardedConfigValidation, RejectsZeroShards) {
  shard::ShardedConfig config;
  config.num_shards = 0;
  Status st = shard::ValidateShardedConfig(config);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("shard count"), std::string::npos) << st;
}

TEST(ShardedConfigValidation, RejectsZeroWorkersWithoutExecutor) {
  shard::ShardedConfig config;
  config.workers = 0;
  Status st = shard::ValidateShardedConfig(config);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("worker count"), std::string::npos) << st;
}

TEST(ShardedConfigValidation, RejectsZeroKeysAndZeroLocals) {
  shard::ShardedConfig keys0;
  keys0.num_keys = 0;
  EXPECT_EQ(shard::ValidateShardedConfig(keys0).code(),
            StatusCode::kInvalidArgument);
  shard::ShardedConfig locals0;
  locals0.num_locals = 0;
  EXPECT_EQ(shard::ValidateShardedConfig(locals0).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedConfigValidation, AcceptsDefaults) {
  shard::ShardedConfig config;
  EXPECT_TRUE(shard::ValidateShardedConfig(config).ok());
}

}  // namespace
}  // namespace dema
