// Tests for the wire codec: varint/zigzag primitives, fixed vs compact event
// encodings, the bit-delta value mode for sorted runs, size guarantees, the
// value-streaming fast path, and decode robustness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "baselines/tdigest_agg.h"
#include "common/rng.h"
#include "dema/protocol.h"
#include "net/codec.h"
#include "net/message.h"
#include "net/serializer.h"
#include "transport/frame.h"

namespace dema::net {
namespace {

TEST(Varint, RoundTripBoundaries) {
  Writer w;
  const uint64_t values[] = {0,       1,          127,        128,
                             16383,   16384,      UINT32_MAX, uint64_t{1} << 62,
                             UINT64_MAX};
  for (uint64_t v : values) w.PutVarint(v);
  Reader r(w.buffer());
  for (uint64_t v : values) {
    uint64_t out = 0;
    ASSERT_TRUE(r.GetVarint(&out).ok());
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(Varint, SmallValuesUseOneByte) {
  Writer w;
  w.PutVarint(0);
  w.PutVarint(127);
  EXPECT_EQ(w.size(), 2u);
  w.PutVarint(128);
  EXPECT_EQ(w.size(), 4u);  // two bytes for 128
}

TEST(Varint, OverlongEncodingRejected) {
  std::vector<uint8_t> bytes(11, 0x80);  // never terminates within 64 bits
  Reader r(bytes);
  uint64_t out;
  EXPECT_EQ(r.GetVarint(&out).code(), StatusCode::kSerializationError);
}

TEST(Zigzag, RoundTripSignedValues) {
  Writer w;
  const int64_t values[] = {0, -1, 1, -2, 2, INT64_MAX, INT64_MIN, -123456789};
  for (int64_t v : values) w.PutZigzag(v);
  Reader r(w.buffer());
  for (int64_t v : values) {
    int64_t out = 0;
    ASSERT_TRUE(r.GetZigzag(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(Zigzag, SmallMagnitudesStaySmall) {
  Writer w;
  w.PutZigzag(-1);
  w.PutZigzag(1);
  w.PutZigzag(-64);
  EXPECT_EQ(w.size(), 3u);  // one byte each
}

std::vector<Event> RandomEvents(size_t n, uint64_t seed, bool sorted) {
  Rng rng(seed);
  std::vector<Event> events;
  TimestampUs t = 0;
  for (uint32_t i = 0; i < n; ++i) {
    t += rng.UniformInt(1, 2000);
    events.push_back(Event{rng.Uniform(0, 1e6), t, 3, i});
  }
  if (sorted) std::sort(events.begin(), events.end());
  return events;
}

class CodecRoundTrip : public ::testing::TestWithParam<EventCodec> {};

TEST_P(CodecRoundTrip, PreservesEveryField) {
  for (bool sorted : {false, true}) {
    auto events = RandomEvents(500, 7, sorted);
    Writer w;
    EncodeEvents(&w, events, GetParam(), sorted);
    Reader r(w.buffer());
    std::vector<Event> out;
    ASSERT_TRUE(DecodeEvents(&r, &out).ok());
    EXPECT_EQ(out, events) << "sorted=" << sorted;
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST_P(CodecRoundTrip, EmptyAndSingleton) {
  for (size_t n : {size_t{0}, size_t{1}}) {
    auto events = RandomEvents(n, 11, false);
    Writer w;
    EncodeEvents(&w, events, GetParam());
    Reader r(w.buffer());
    std::vector<Event> out;
    ASSERT_TRUE(DecodeEvents(&r, &out).ok());
    EXPECT_EQ(out, events);
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecRoundTrip,
                         ::testing::Values(EventCodec::kFixed,
                                           EventCodec::kCompact),
                         [](const auto& info) {
                           return info.param == EventCodec::kFixed ? "Fixed"
                                                                   : "Compact";
                         });

TEST(CompactCodec, NegativeValuesFallBackToRawAndStayCorrect) {
  Rng rng(13);
  std::vector<Event> events;
  for (uint32_t i = 0; i < 200; ++i) {
    events.push_back(Event{rng.Normal(0, 100), static_cast<TimestampUs>(i), 1, i});
  }
  std::sort(events.begin(), events.end());
  Writer w;
  EncodeEvents(&w, events, EventCodec::kCompact, /*sorted_hint=*/true);
  Reader r(w.buffer());
  std::vector<Event> out;
  ASSERT_TRUE(DecodeEvents(&r, &out).ok());
  EXPECT_EQ(out, events);
}

TEST(CompactCodec, SortedRunsCompressWell) {
  auto events = RandomEvents(10'000, 17, /*sorted=*/true);
  Writer fixed, compact;
  EncodeEvents(&fixed, events, EventCodec::kFixed);
  EncodeEvents(&compact, events, EventCodec::kCompact, /*sorted_hint=*/true);
  // Sorted positive values use bit deltas; expect at least 40% savings.
  EXPECT_LT(compact.size(), fixed.size() * 6 / 10)
      << "fixed=" << fixed.size() << " compact=" << compact.size();
}

TEST(CompactCodec, TimeOrderedStreamsCompress) {
  auto events = RandomEvents(10'000, 19, /*sorted=*/false);  // time-ordered
  Writer fixed, compact;
  EncodeEvents(&fixed, events, EventCodec::kFixed);
  EncodeEvents(&compact, events, EventCodec::kCompact);
  // Raw 8-byte values + small deltas: still a solid win over 24 B/event.
  EXPECT_LT(compact.size(), fixed.size() * 7 / 10);
}

TEST(CodecFastPath, StreamsValuesForBothCodecs) {
  for (EventCodec codec : {EventCodec::kFixed, EventCodec::kCompact}) {
    auto events = RandomEvents(300, 23, /*sorted=*/true);
    EventBatch batch;
    batch.window_id = 5;
    batch.sorted = true;
    batch.codec = codec;
    batch.events = events;
    Message m = MakeMessage(MessageType::kEventBatch, 1, 0, batch);

    std::vector<double> seen;
    auto count = EventBatch::ForEachValue(
        m.payload, [&](double v) { seen.push_back(v); });
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(*count, events.size());
    ASSERT_EQ(seen.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      EXPECT_DOUBLE_EQ(seen[i], events[i].value);
    }
  }
}

TEST(CodecRobustness, TruncationsErrorCleanly) {
  auto events = RandomEvents(50, 29, true);
  for (EventCodec codec : {EventCodec::kFixed, EventCodec::kCompact}) {
    Writer w;
    EncodeEvents(&w, events, codec, true);
    const auto& full = w.buffer();
    for (size_t cut = 0; cut < full.size(); cut += 7) {
      Reader r(full.data(), cut);
      std::vector<Event> out;
      Status st = DecodeEvents(&r, &out);
      EXPECT_FALSE(st.ok()) << "cut=" << cut;
    }
  }
}

TEST(CodecRobustness, UnknownTagRejected) {
  std::vector<uint8_t> bytes = {0x07, 0x00};
  Reader r(bytes);
  std::vector<Event> out;
  EXPECT_EQ(DecodeEvents(&r, &out).code(), StatusCode::kSerializationError);
}

TEST(CodecRobustness, HugeCountRejectedBeforeAllocation) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(EventCodec::kCompact));
  w.PutVarint(uint64_t{1} << 40);  // absurd count, no data behind it
  w.PutU8(0);
  Reader r(w.buffer());
  std::vector<Event> out;
  EXPECT_EQ(DecodeEvents(&r, &out).code(), StatusCode::kSerializationError);
}

// ---------------------------------------------------------------------------
// Fuzz-style robustness: a valid payload for every message type, then every
// strict truncation and every single-byte corruption fed to the matching
// decoder. Decoders must return a clean Status — never crash, never trip
// UB, never allocate absurd buffers off a corrupt count.
// ---------------------------------------------------------------------------

struct PayloadCase {
  MessageType type;
  const char* name;
  std::vector<uint8_t> payload;
  std::function<Status(Reader*)> decode;
};

template <typename P>
std::vector<uint8_t> Serialized(const P& p) {
  Writer w;
  p.SerializeTo(&w);
  return w.TakeBuffer();
}

std::vector<PayloadCase> AllPayloadCases() {
  std::vector<PayloadCase> cases;

  for (EventCodec codec : {EventCodec::kFixed, EventCodec::kCompact}) {
    EventBatch batch;
    batch.window_id = 4;
    batch.sorted = true;
    batch.last_batch = true;
    batch.codec = codec;
    batch.events = RandomEvents(25, 11, /*sorted=*/true);
    cases.push_back({MessageType::kEventBatch,
                     codec == EventCodec::kFixed ? "EventBatch/fixed"
                                                 : "EventBatch/compact",
                     Serialized(batch),
                     [](Reader* r) { return EventBatch::Deserialize(r).status(); }});
  }

  WindowEnd end;
  end.window_id = 7;
  end.local_window_size = 123;
  end.close_time_us = 99'000;
  cases.push_back({MessageType::kWindowEnd, "WindowEnd", Serialized(end),
                   [](Reader* r) { return WindowEnd::Deserialize(r).status(); }});

  TimeAdvance advance;
  advance.watermark_us = 5'000'000;
  advance.final_marker = true;
  cases.push_back({MessageType::kTimeAdvance, "TimeAdvance", Serialized(advance),
                   [](Reader* r) { return TimeAdvance::Deserialize(r).status(); }});

  core::SynopsisBatch synopses;
  synopses.window_id = 3;
  synopses.node = 2;
  synopses.gamma_used = 3;
  synopses.close_time_us = 1'000;
  auto events = RandomEvents(5, 13, /*sorted=*/true);
  core::SliceSynopsis s0{2, 0, events[0], events[2], 3};
  core::SliceSynopsis s1{2, 1, events[3], events[4], 2};
  synopses.slices = {s0, s1};
  synopses.local_window_size = 5;
  cases.push_back({MessageType::kSynopsisBatch, "SynopsisBatch",
                   Serialized(synopses), [](Reader* r) {
                     return core::SynopsisBatch::Deserialize(r).status();
                   }});

  // A window cut at γ = 2 ships as its sorted events, in either codec.
  for (EventCodec codec : {EventCodec::kFixed, EventCodec::kCompact}) {
    core::SynopsisBatch cut_at_two;
    cut_at_two.window_id = 3;
    cut_at_two.node = 2;
    cut_at_two.gamma_used = 2;
    cut_at_two.close_time_us = 1'000;
    cut_at_two.codec = codec;
    auto window = RandomEvents(7, 19, /*sorted=*/true);
    cut_at_two.slices = *core::CutIntoSlices(window, 2, 2);
    cut_at_two.local_window_size = window.size();
    cases.push_back({MessageType::kSynopsisBatch,
                     codec == EventCodec::kFixed ? "SynopsisBatch/events/fixed"
                                                 : "SynopsisBatch/events/compact",
                     Serialized(cut_at_two), [](Reader* r) {
                       return core::SynopsisBatch::Deserialize(r).status();
                     }});
  }

  core::CandidateRequest request;
  request.window_id = 3;
  request.slice_indices = {0, 1, 5, 9};
  cases.push_back({MessageType::kCandidateRequest, "CandidateRequest",
                   Serialized(request), [](Reader* r) {
                     return core::CandidateRequest::Deserialize(r).status();
                   }});

  for (EventCodec codec : {EventCodec::kFixed, EventCodec::kCompact}) {
    core::CandidateReply reply;
    reply.window_id = 3;
    reply.node = 2;
    reply.codec = codec;
    reply.events = RandomEvents(30, 17, /*sorted=*/true);
    cases.push_back({MessageType::kCandidateReply,
                     codec == EventCodec::kFixed ? "CandidateReply/fixed"
                                                 : "CandidateReply/compact",
                     Serialized(reply), [](Reader* r) {
                       return core::CandidateReply::Deserialize(r).status();
                     }});
  }

  core::GammaUpdate gamma;
  gamma.effective_from = 8;
  gamma.gamma = 512;
  cases.push_back({MessageType::kGammaUpdate, "GammaUpdate", Serialized(gamma),
                   [](Reader* r) {
                     return core::GammaUpdate::Deserialize(r).status();
                   }});

  core::WindowResult result;
  result.window_id = 6;
  result.q = 0.99;
  result.result = Event{42.5, 1'000, 1, 7};
  result.global_size = 10'000;
  result.latency_us = 1'234;
  cases.push_back({MessageType::kResult, "WindowResult", Serialized(result),
                   [](Reader* r) {
                     return core::WindowResult::Deserialize(r).status();
                   }});

  baselines::SketchSummary sketch;
  sketch.window_id = 2;
  sketch.node = 1;
  sketch.local_window_size = 77;
  sketch.close_time_us = 3'000;
  sketch.digest = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  cases.push_back({MessageType::kSketchSummary, "SketchSummary",
                   Serialized(sketch), [](Reader* r) {
                     return baselines::SketchSummary::Deserialize(r).status();
                   }});

  // kShutdown carries no payload — nothing to decode, nothing to fuzz.
  return cases;
}

TEST(PayloadRobustness, EveryStrictTruncationFailsCleanly) {
  for (const PayloadCase& c : AllPayloadCases()) {
    ASSERT_FALSE(c.payload.empty()) << c.name;
    for (size_t cut = 0; cut < c.payload.size(); ++cut) {
      Reader r(c.payload.data(), cut);
      Status st = c.decode(&r);
      EXPECT_FALSE(st.ok()) << c.name << " decoded a " << cut << "/"
                            << c.payload.size() << "-byte prefix";
    }
    // The untouched payload must still decode (guards the case builders).
    Reader r(c.payload);
    EXPECT_TRUE(c.decode(&r).ok()) << c.name;
  }
}

TEST(PayloadRobustness, EverySingleByteCorruptionIsHandled) {
  // A flipped byte may still decode to a (different) valid payload; the
  // invariant is no crash, no UB, no unbounded allocation — under the CI
  // sanitizer build this covers the memory-safety half.
  for (const PayloadCase& c : AllPayloadCases()) {
    for (size_t i = 0; i < c.payload.size(); ++i) {
      std::vector<uint8_t> corrupt = c.payload;
      corrupt[i] ^= 0xFF;
      Reader r(corrupt);
      Status st = c.decode(&r);
      (void)st;
    }
  }
}

TEST(PayloadRobustness, SeededRandomByteFlipsAreHandled) {
  // Beyond the exhaustive single-byte sweep: bursts of random byte flips at
  // random offsets, seeded so failures reproduce. The decode must return a
  // clean Status or a plausibly-sized result — never crash and never size a
  // buffer off a corrupt count (every encoded event costs at least one
  // payload byte, so a successful decode can't claim more events than
  // bytes).
  Rng rng(0xC0DEC);
  for (const PayloadCase& c : AllPayloadCases()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> corrupt = c.payload;
      const int flips = static_cast<int>(rng.UniformInt(1, 8));
      for (int f = 0; f < flips; ++f) {
        size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(corrupt.size()) - 1));
        corrupt[at] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
      }
      Reader r(corrupt);
      if (c.type == MessageType::kEventBatch) {
        auto out = EventBatch::Deserialize(&r);
        if (out.ok()) {
          EXPECT_LE(out->events.size(), corrupt.size()) << c.name;
        }
      } else if (c.type == MessageType::kCandidateReply) {
        auto out = core::CandidateReply::Deserialize(&r);
        if (out.ok()) {
          EXPECT_LE(out->events.size(), corrupt.size()) << c.name;
        }
      } else {
        (void)c.decode(&r);
      }
    }
  }
}

TEST(PayloadRobustness, MalformedEventsFormRejected) {
  // The events form of a γ = 2 batch: header, form word, encoded events.
  const auto payload = [](uint64_t declared, const std::vector<Event>& events,
                          uint32_t form, EventCodec codec) {
    Writer w;
    w.PutU64(3);  // window id
    w.PutU32(2);  // node
    w.PutU64(declared);
    w.PutU32(2);  // gamma_used
    w.PutI64(1'000);
    w.PutU32(form);
    EncodeEvents(&w, events, codec, /*sorted_hint=*/true);
    return w.TakeBuffer();
  };
  const auto decodes = [](const std::vector<uint8_t>& bytes) {
    Reader r(bytes);
    return core::SynopsisBatch::Deserialize(&r).ok();
  };
  const auto sorted = RandomEvents(6, 23, /*sorted=*/true);
  auto unsorted = sorted;
  std::swap(unsorted[2], unsorted[4]);
  for (EventCodec codec : {EventCodec::kFixed, EventCodec::kCompact}) {
    EXPECT_TRUE(decodes(payload(6, sorted, core::kSynopsisEventsForm, codec)));
    EXPECT_FALSE(decodes(payload(5, sorted, core::kSynopsisEventsForm, codec)));
    EXPECT_FALSE(decodes(payload(7, sorted, core::kSynopsisEventsForm, codec)));
    EXPECT_FALSE(
        decodes(payload(6, unsorted, core::kSynopsisEventsForm, codec)));
    for (uint32_t form : {core::kSynopsisFormMarkers, 0xFFFFFFFEu}) {
      EXPECT_FALSE(decodes(payload(6, sorted, form, codec))) << form;
    }
  }
}

TEST(FrameCrc, DetectsEverySingleByteFlip) {
  net::Message m;
  m.type = MessageType::kCandidateReply;
  m.src = 2;
  m.dst = 0;
  m.seq = 9;
  m.payload = {10, 20, 30, 40, 50, 60};
  std::vector<uint8_t> frame;
  transport::EncodeFrame(m, &frame);
  ASSERT_EQ(frame.size(), m.WireBytes());
  const size_t payload_at = transport::kFrameHeaderBytes;
  const size_t trailer_at = payload_at + m.payload.size();
  ASSERT_TRUE(transport::VerifyFrameCrc(frame.data(), payload_at,
                                        frame.data() + payload_at,
                                        m.payload.size(),
                                        frame.data() + trailer_at)
                  .ok());
  // CRC32C catches every single-bit (and single-byte) error, whether it
  // lands in the header, the payload, or the trailer itself.
  for (size_t i = 0; i < frame.size(); ++i) {
    for (uint8_t bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = frame;
      bad[i] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(transport::VerifyFrameCrc(bad.data(), payload_at,
                                             bad.data() + payload_at,
                                             m.payload.size(),
                                             bad.data() + trailer_at)
                       .ok())
          << "flip at byte " << i << " bit " << int(bit) << " went undetected";
    }
  }
}

TEST(FrameCrc, DetectsSeededRandomBursts) {
  core::SynopsisBatch synopses;
  synopses.window_id = 12;
  synopses.node = 4;
  synopses.gamma_used = 8;
  synopses.local_window_size = 16;
  auto events = RandomEvents(16, 37, /*sorted=*/true);
  synopses.slices.push_back(core::SliceSynopsis{4, 0, events[0], events[7], 8});
  synopses.slices.push_back(core::SliceSynopsis{4, 1, events[8], events[15], 8});
  net::Message m = MakeMessage(MessageType::kSynopsisBatch, 4, 0, synopses);
  std::vector<uint8_t> frame;
  transport::EncodeFrame(m, &frame);
  const size_t payload_at = transport::kFrameHeaderBytes;
  const size_t trailer_at = payload_at + m.payload.size();

  Rng rng(0xCCCC);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bad = frame;
    const int flips = static_cast<int>(rng.UniformInt(1, 6));
    for (int f = 0; f < flips; ++f) {
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bad.size()) - 1));
      bad[at] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
    }
    if (bad == frame) continue;  // flips cancelled out
    EXPECT_FALSE(transport::VerifyFrameCrc(bad.data(), payload_at,
                                           bad.data() + payload_at,
                                           m.payload.size(),
                                           bad.data() + trailer_at)
                     .ok())
        << "trial " << trial;
  }
}

TEST(PeekEventCountCheck, CrossChecksDeclaredCountAgainstStream) {
  EventBatch batch;
  batch.window_id = 4;
  batch.sorted = true;
  batch.codec = EventCodec::kFixed;
  batch.events = RandomEvents(25, 41, /*sorted=*/true);
  std::vector<uint8_t> payload = Serialized(batch);

  auto count = transport::PeekEventCount(MessageType::kEventBatch, payload);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 25u);

  // Non-event-carrying types report zero without touching the payload.
  auto none = transport::PeekEventCount(MessageType::kWindowEnd, payload);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);

  // The count varint sits after u64 window_id + sorted + last_batch bytes
  // and the codec tag. Inflate it: the stream now holds fewer events than
  // declared, which must fail instead of sizing a buffer for the lie.
  const size_t count_at = sizeof(uint64_t) + 2 + 1;
  ASSERT_EQ(payload[count_at], 25u);
  std::vector<uint8_t> inflated = payload;
  inflated[count_at] = 26;
  EXPECT_FALSE(
      transport::PeekEventCount(MessageType::kEventBatch, inflated).ok());

  // Deflate it: the stream holds more bytes than the declared count
  // explains, equally a lie.
  std::vector<uint8_t> deflated = payload;
  deflated[count_at] = 24;
  EXPECT_FALSE(
      transport::PeekEventCount(MessageType::kEventBatch, deflated).ok());

  // CandidateReply is the other event-carrying type.
  core::CandidateReply reply;
  reply.window_id = 3;
  reply.node = 2;
  reply.codec = EventCodec::kCompact;
  reply.events = RandomEvents(30, 43, /*sorted=*/true);
  auto reply_count = transport::PeekEventCount(MessageType::kCandidateReply,
                                               Serialized(reply));
  ASSERT_TRUE(reply_count.ok());
  EXPECT_EQ(*reply_count, 30u);
}

TEST(PayloadRobustness, CorruptFrameHeadersRejected) {
  net::Message m;
  m.type = MessageType::kWindowEnd;
  m.src = 3;
  m.dst = 0;
  m.payload = {1, 2, 3, 4};
  std::vector<uint8_t> frame;
  transport::EncodeFrame(m, &frame);
  ASSERT_EQ(frame.size(), m.WireBytes());

  transport::FrameHeader header;
  // Every strict truncation of the fixed header fails.
  for (size_t cut = 0; cut < transport::kFrameHeaderBytes; ++cut) {
    EXPECT_FALSE(
        transport::DecodeFrameHeader(frame.data(), cut, 1 << 20, &header).ok());
  }
  // Unknown message type: corrupt the type field.
  std::vector<uint8_t> bad_type = frame;
  bad_type[0] = 0xEE;
  bad_type[1] = 0xEE;
  EXPECT_FALSE(transport::DecodeFrameHeader(bad_type.data(), bad_type.size(),
                                            1 << 20, &header)
                   .ok());
  // A corrupt length prefix must not drive a huge allocation. The length is
  // the last header field, directly before the payload.
  std::vector<uint8_t> bad_len = frame;
  const size_t len_off = transport::kFrameHeaderBytes - sizeof(uint32_t);
  for (size_t i = 0; i < sizeof(uint32_t); ++i) bad_len[len_off + i] = 0xFF;
  EXPECT_FALSE(transport::DecodeFrameHeader(bad_len.data(), bad_len.size(),
                                            1 << 20, &header)
                   .ok());
  // The untouched frame still parses and echoes the envelope.
  ASSERT_TRUE(transport::DecodeFrameHeader(frame.data(), frame.size(), 1 << 20,
                                           &header)
                  .ok());
  EXPECT_EQ(header.type, MessageType::kWindowEnd);
  EXPECT_EQ(header.src, 3u);
  EXPECT_EQ(header.payload_size, 4u);
}

TEST(CandidateReplyCodec, CompactRoundTripThroughProtocol) {
  core::CandidateReply reply;
  reply.window_id = 3;
  reply.node = 2;
  reply.codec = EventCodec::kCompact;
  reply.events = RandomEvents(400, 31, /*sorted=*/true);
  Writer w;
  reply.SerializeTo(&w);
  Reader r(w.buffer());
  auto out = core::CandidateReply::Deserialize(&r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->events, reply.events);
  EXPECT_EQ(out->node, 2u);
}

}  // namespace
}  // namespace dema::net
