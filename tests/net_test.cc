// Unit tests for the network substrate: serialization, message framing,
// channels (including concurrency and backpressure), and the network fabric's
// traffic accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "common/clock.h"
#include "common/time.h"
#include "net/channel.h"
#include "net/dedup.h"
#include "net/message.h"
#include "net/network.h"
#include "net/serializer.h"
#include "obs/registry.h"

namespace dema::net {
namespace {

TEST(Serializer, PrimitiveRoundTrip) {
  Writer w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutDouble(3.14159);
  w.PutString("hello");

  Reader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU16(&u16).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serializer, EventRoundTrip) {
  Writer w;
  Event e{123.456, 789, 3, 17};
  w.PutEvent(e);
  Reader r(w.buffer());
  Event out;
  ASSERT_TRUE(r.GetEvent(&out).ok());
  EXPECT_EQ(out, e);
}

TEST(Serializer, EventVectorRoundTrip) {
  Writer w;
  std::vector<Event> events;
  for (uint32_t i = 0; i < 100; ++i) {
    events.push_back(Event{static_cast<double>(i), i * 10, 1, i});
  }
  w.PutEvents(events);
  Reader r(w.buffer());
  std::vector<Event> out;
  ASSERT_TRUE(r.GetEvents(&out).ok());
  EXPECT_EQ(out, events);
}

TEST(Serializer, TruncatedBufferFails) {
  Writer w;
  w.PutU64(7);
  Reader r(w.buffer().data(), 4);  // half the u64
  uint64_t v;
  Status st = r.GetU64(&v);
  EXPECT_EQ(st.code(), StatusCode::kSerializationError);
}

TEST(Serializer, OversizedStringLengthFails) {
  Writer w;
  w.PutU32(1'000'000);  // claims a huge string with no bytes behind it
  Reader r(w.buffer());
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kSerializationError);
}

TEST(Serializer, OversizedEventCountFails) {
  Writer w;
  w.PutU32(1'000'000);  // claims a million events
  Reader r(w.buffer());
  std::vector<Event> out;
  EXPECT_EQ(r.GetEvents(&out).code(), StatusCode::kSerializationError);
}

TEST(Message, EventBatchRoundTrip) {
  EventBatch batch;
  batch.window_id = 9;
  batch.sorted = true;
  batch.last_batch = true;
  batch.events = {{1, 2, 3, 4}, {5, 6, 7, 8}};

  Message m = MakeMessage(MessageType::kEventBatch, 1, 0, batch);
  EXPECT_EQ(m.event_count, 2u);
  EXPECT_EQ(m.WireBytes(), kEnvelopeWireBytes + m.payload.size());

  Reader r(m.payload);
  auto out = EventBatch::Deserialize(&r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->window_id, 9u);
  EXPECT_TRUE(out->sorted);
  EXPECT_TRUE(out->last_batch);
  EXPECT_EQ(out->events, batch.events);
}

TEST(Message, WindowEndRoundTrip) {
  WindowEnd end{5, 1234, 999};
  Message m = MakeMessage(MessageType::kWindowEnd, 2, 0, end);
  EXPECT_EQ(m.event_count, 0u);  // markers carry no raw events
  Reader r(m.payload);
  auto out = WindowEnd::Deserialize(&r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->window_id, 5u);
  EXPECT_EQ(out->local_window_size, 1234u);
  EXPECT_EQ(out->close_time_us, 999);
}

TEST(Message, TypeNames) {
  EXPECT_STREQ(MessageTypeToString(MessageType::kEventBatch), "EventBatch");
  EXPECT_STREQ(MessageTypeToString(MessageType::kSynopsisBatch), "SynopsisBatch");
  EXPECT_STREQ(MessageTypeToString(MessageType::kShutdown), "Shutdown");
}

Message TestMessage(uint64_t events = 0, size_t payload_bytes = 8) {
  Message m;
  m.type = MessageType::kEventBatch;
  m.src = 1;
  m.dst = 0;
  m.payload.assign(payload_bytes, 0);
  m.event_count = events;
  return m;
}

TEST(Channel, FifoOrder) {
  Channel ch;
  for (int i = 0; i < 10; ++i) {
    Message m = TestMessage();
    m.payload[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(ch.Push(std::move(m)));
  }
  for (int i = 0; i < 10; ++i) {
    auto m = ch.TryPop();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload[0], i);
  }
  EXPECT_FALSE(ch.TryPop().has_value());
}

TEST(Channel, CountsTraffic) {
  Channel ch;
  ASSERT_TRUE(ch.Push(TestMessage(5, 100)));
  ASSERT_TRUE(ch.Push(TestMessage(3, 50)));
  auto c = ch.counters();
  EXPECT_EQ(c.messages, 2u);
  EXPECT_EQ(c.events, 8u);
  EXPECT_EQ(c.bytes, 2 * kEnvelopeWireBytes + 150);
}

TEST(Channel, CloseDrainsThenEnds) {
  Channel ch;
  ASSERT_TRUE(ch.Push(TestMessage()));
  ch.Close();
  EXPECT_FALSE(ch.Push(TestMessage()));  // producers fail after close
  EXPECT_TRUE(ch.Pop().has_value());     // consumer drains the queue
  EXPECT_FALSE(ch.Pop().has_value());    // then sees end-of-stream
}

TEST(Channel, TryPushRespectsCapacity) {
  Channel ch(2);
  EXPECT_TRUE(ch.TryPush(TestMessage()));
  EXPECT_TRUE(ch.TryPush(TestMessage()));
  EXPECT_FALSE(ch.TryPush(TestMessage()));
  ch.TryPop();
  EXPECT_TRUE(ch.TryPush(TestMessage()));
}

TEST(Channel, PopForTimesOut) {
  Channel ch;
  auto m = ch.PopFor(MillisUs(5));
  EXPECT_FALSE(m.has_value());
}

TEST(Channel, BoundedPushBlocksUntilSpace) {
  Channel ch(1);
  ASSERT_TRUE(ch.Push(TestMessage()));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ch.Push(TestMessage());
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked on the full channel
  ch.TryPop();
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(Channel, ConcurrentProducersDeliverEverything) {
  Channel ch(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.Push(TestMessage(1)));
      }
    });
  }
  uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    if (ch.Pop().has_value()) ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ch.counters().messages, static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(ch.size(), 0u);
}

TEST(Network, RegisterAndSend) {
  RealClock clock;
  Network net(&clock);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  EXPECT_EQ(net.RegisterNode(1).code(), StatusCode::kAlreadyExists);

  ASSERT_TRUE(net.Send(TestMessage(4, 32)).ok());
  auto stats = net.GetLinkStats(1, 0);
  EXPECT_EQ(stats.counters.messages, 1u);
  EXPECT_EQ(stats.counters.events, 4u);
  EXPECT_GT(stats.simulated_transfer_us, 0.0);

  auto msg = net.Inbox(0)->TryPop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->src, 1u);
}

TEST(Network, ExtremeNodeIdsKeepLinksDistinct) {
  // Regression: link stats were keyed by the packed integer
  // (src << 32) | dst, which silently collides distinct links as soon as
  // NodeId outgrows 32 bits. The key is now the (src, dst) pair itself,
  // which stays collision-free for any NodeId width. Exercise the extreme
  // ends of the current id range in both directions.
  RealClock clock;
  Network net(&clock);
  const NodeId kMax = std::numeric_limits<NodeId>::max();
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.RegisterNode(kMax).ok());

  auto send = [&](NodeId src, NodeId dst, size_t payload_bytes) {
    Message m = TestMessage(/*events=*/1, payload_bytes);
    m.src = src;
    m.dst = dst;
    ASSERT_TRUE(net.Send(std::move(m)).ok());
  };
  send(kMax, 0, 10);
  send(0, kMax, 20);
  send(kMax, 1, 30);
  send(1, kMax, 40);

  // Four distinct directed links, none aliased onto another.
  EXPECT_EQ(net.GetLinkStats(kMax, 0).counters.bytes, kEnvelopeWireBytes + 10);
  EXPECT_EQ(net.GetLinkStats(0, kMax).counters.bytes, kEnvelopeWireBytes + 20);
  EXPECT_EQ(net.GetLinkStats(kMax, 1).counters.bytes, kEnvelopeWireBytes + 30);
  EXPECT_EQ(net.GetLinkStats(1, kMax).counters.bytes, kEnvelopeWireBytes + 40);
  EXPECT_EQ(net.AllLinks().size(), 4u);
  EXPECT_EQ(net.GetLinkStats(1, 0).counters.messages, 0u);
}

TEST(Network, SendToUnknownNodeFails) {
  RealClock clock;
  Network net(&clock);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  Message m = TestMessage();
  m.dst = 99;
  EXPECT_EQ(net.Send(std::move(m)).code(), StatusCode::kNotFound);
}

TEST(Network, TotalAndPerTypeStats) {
  RealClock clock;
  Network net(&clock);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.RegisterNode(2).ok());

  Message a = TestMessage(2, 16);
  a.src = 1;
  ASSERT_TRUE(net.Send(std::move(a)).ok());
  Message b = TestMessage(0, 8);
  b.src = 2;
  b.type = MessageType::kWindowEnd;
  ASSERT_TRUE(net.Send(std::move(b)).ok());

  auto total = net.TotalStats();
  EXPECT_EQ(total.counters.messages, 2u);
  EXPECT_EQ(total.counters.events, 2u);

  auto by_type = net.StatsByType();
  EXPECT_EQ(by_type[MessageType::kEventBatch].messages, 1u);
  EXPECT_EQ(by_type[MessageType::kWindowEnd].messages, 1u);
}

TEST(Network, LinkModelTransferTime) {
  tick::LinkSpec model;
  model.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  model.base_latency_us = 100;
  EXPECT_DOUBLE_EQ(model.TransferTimeUs(1'000'000), 100 + 1e6);
  EXPECT_DOUBLE_EQ(model.TransferTimeUs(0), 100);
  // The event queue's hop time is whole microseconds, never below 1.
  EXPECT_EQ(model.HopTimeUs(1'000'000), 100u + 1'000'000u);
  model.base_latency_us = 0;
  EXPECT_EQ(model.HopTimeUs(0), 1u);
}

TEST(Network, CloseAllStopsProducers) {
  RealClock clock;
  Network net(&clock);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  net.CloseAll();
  EXPECT_EQ(net.Send(TestMessage()).code(), StatusCode::kNetworkError);
}

TEST(Channel, CloseUnblocksBlockedPush) {
  Channel ch(1);
  ASSERT_TRUE(ch.Push(TestMessage()));
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread pusher([&] {
    push_result = ch.Push(TestMessage());  // channel full: blocks
    push_returned = true;
  });
  // Nothing pops, so the push can only be sitting in the full-channel wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(push_returned.load());
  ch.Close();
  pusher.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load());
}

// --- fault fabric -----------------------------------------------------------

TEST(FaultFabric, LossDropsDeliveryButChargesTheWire) {
  // Regression: the loss branch used to count the drop but still deliver the
  // message, making every "lossy" run secretly lossless.
  RealClock clock;
  obs::Registry registry;
  Network::Options opts;
  opts.drop_prob = 1.0;
  opts.registry = &registry;
  Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.Send(TestMessage(4, 100)).ok());  // loss looks like success
  EXPECT_FALSE(net.Inbox(0)->TryPop().has_value());
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(registry.CounterValues().at("net.dropped{cause=loss}"), 1u);
  // The message travelled before it was lost: the wire is charged.
  EXPECT_EQ(net.GetLinkStats(1, 0).counters.messages, 1u);
}

TEST(FaultFabric, PartitionBlocksDirectedLinkUntilHealed) {
  RealClock clock;
  obs::Registry registry;
  Network::Options opts;
  opts.registry = &registry;
  Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  net.Partition(1, 0);
  ASSERT_TRUE(net.Send(TestMessage()).ok());
  EXPECT_FALSE(net.Inbox(0)->TryPop().has_value());
  EXPECT_EQ(registry.CounterValues().at("net.dropped{cause=partition}"), 1u);
  // A partitioned send never leaves the sender, so the wire is not charged.
  EXPECT_EQ(net.GetLinkStats(1, 0).counters.messages, 0u);
  // Directed: the reverse link still works.
  Message reverse = TestMessage();
  reverse.src = 0;
  reverse.dst = 1;
  ASSERT_TRUE(net.Send(std::move(reverse)).ok());
  EXPECT_TRUE(net.Inbox(1)->TryPop().has_value());
  net.Heal(1, 0);
  ASSERT_TRUE(net.Send(TestMessage()).ok());
  EXPECT_TRUE(net.Inbox(0)->TryPop().has_value());
}

TEST(FaultFabric, DownNodeDropsTrafficBothDirections) {
  RealClock clock;
  obs::Registry registry;
  Network::Options opts;
  opts.registry = &registry;
  Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  net.SetNodeDown(1, true);
  ASSERT_TRUE(net.Send(TestMessage()).ok());  // src down
  Message to_down = TestMessage();
  to_down.src = 0;
  to_down.dst = 1;
  ASSERT_TRUE(net.Send(std::move(to_down)).ok());  // dst down
  EXPECT_FALSE(net.Inbox(0)->TryPop().has_value());
  EXPECT_FALSE(net.Inbox(1)->TryPop().has_value());
  EXPECT_EQ(registry.CounterValues().at("net.dropped{cause=node_down}"), 2u);
  net.SetNodeDown(1, false);
  ASSERT_TRUE(net.Send(TestMessage()).ok());
  EXPECT_TRUE(net.Inbox(0)->TryPop().has_value());
}

TEST(FaultFabric, DelayedMessageRedeliversOnFlush) {
  RealClock clock;
  Network::Options opts;
  opts.delay_us_max = SecondsUs(10);  // far past the per-send clock advance
  opts.delay_prob = 1.0;
  Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.Send(TestMessage()).ok());
  EXPECT_FALSE(net.Inbox(0)->TryPop().has_value());
  EXPECT_EQ(net.messages_delayed(), 1u);
  EXPECT_EQ(net.delayed_in_flight(), 1u);
  EXPECT_EQ(net.FlushDelayed(), 1u);
  EXPECT_EQ(net.delayed_in_flight(), 0u);
  EXPECT_TRUE(net.Inbox(0)->TryPop().has_value());
}

TEST(FaultFabric, DelayedMessageDropsWhenNodeDiesInFlight) {
  RealClock clock;
  obs::Registry registry;
  Network::Options opts;
  opts.delay_us_max = SecondsUs(10);
  opts.delay_prob = 1.0;
  opts.registry = &registry;
  Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.Send(TestMessage()).ok());
  net.SetNodeDown(1, true);  // sender dies while its message is in flight
  EXPECT_EQ(net.FlushDelayed(), 0u);
  EXPECT_FALSE(net.Inbox(0)->TryPop().has_value());
  EXPECT_EQ(registry.CounterValues().at("net.dropped{cause=node_down}"), 1u);
}

TEST(FaultFabric, InjectedDuplicatesTaggedInPerLinkCounters) {
  RealClock clock;
  obs::Registry registry;
  Network::Options opts;
  opts.duplicate_prob = 1.0;
  opts.registry = &registry;
  Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.Send(TestMessage(4, 100)).ok());
  auto counters = registry.CounterValues();
  // The duplicate is charged to the normal link totals AND tagged separately,
  // so parity checks can subtract injected traffic.
  EXPECT_EQ(counters.at("transport.sent.messages{link=1->0}"), 2u);
  EXPECT_EQ(counters.at("net.duplicates.messages{link=1->0}"), 1u);
  EXPECT_EQ(counters.at("net.duplicates.events{link=1->0}"), 4u);
}

TEST(SeqDedup, FlagsRepeatsAndPassesFreshSeqs) {
  SeqDedup dedup;
  EXPECT_FALSE(dedup.IsDuplicate(1, 1));
  EXPECT_FALSE(dedup.IsDuplicate(1, 2));
  EXPECT_TRUE(dedup.IsDuplicate(1, 2));
  EXPECT_FALSE(dedup.IsDuplicate(2, 2));  // per-source streams are independent
  EXPECT_FALSE(dedup.IsDuplicate(1, 3));
  EXPECT_EQ(dedup.duplicates_seen(), 1u);
}

TEST(SeqDedup, SerialComparisonOrdersAcrossWraparound) {
  EXPECT_TRUE(SeqDedup::SeqNewer(1, 0xFFFFFFFFu));
  EXPECT_FALSE(SeqDedup::SeqNewer(0xFFFFFFFFu, 1));
  EXPECT_TRUE(SeqDedup::SeqNewer(0x80000000u, 1));
  EXPECT_FALSE(SeqDedup::SeqNewer(5, 5));
}

// Regression: with raw uint32_t comparison, every post-wrap seq compared
// below max_seq, so the horizon froze and late traffic on a long-lived
// connection was silently treated as duplicate-window history.
TEST(SeqDedup, SurvivesSequenceWraparound) {
  const uint32_t window = 64;
  SeqDedup dedup(window);
  // March a stream across the 2^32 boundary.
  const uint32_t start = 0xFFFFFFFFu - 100;
  for (uint32_t i = 0; i < 200; ++i) {
    const uint32_t seq = start + i;  // wraps past 0xFFFFFFFF
    if (seq == 0) continue;          // 0 is the unsequenced marker
    EXPECT_FALSE(dedup.IsDuplicate(7, seq)) << "seq=" << seq;
  }
  // Post-wrap seqs still dedup as duplicates when replayed...
  EXPECT_TRUE(dedup.IsDuplicate(7, start + 150));
  // ...and fresh seqs after the wrap keep passing.
  EXPECT_FALSE(dedup.IsDuplicate(7, start + 200));
  EXPECT_EQ(dedup.duplicates_seen(), 1u);
}

TEST(SeqDedup, PrunesAcrossWrapWithoutReflaggingRecent) {
  const uint32_t window = 16;
  SeqDedup dedup(window);
  // Fill well past the window across the wrap; the seen-set must stay
  // bounded (pruning keeps working) and recent seqs must still be known.
  const uint32_t start = 0xFFFFFFF0u;
  uint32_t last = 0;
  for (uint32_t i = 0; i < 64; ++i) {
    const uint32_t seq = start + i;
    if (seq == 0) continue;
    ASSERT_FALSE(dedup.IsDuplicate(3, seq));
    last = seq;
  }
  EXPECT_TRUE(dedup.IsDuplicate(3, last));
  EXPECT_TRUE(dedup.IsDuplicate(3, last - window / 2));
}

TEST(SeqDedup, LateJoinStartsFromFirstObservedSeq) {
  // A receiver that first hears a stream near the top of the sequence space
  // must adopt that seq as its horizon anchor, not compare against 0.
  SeqDedup dedup(32);
  EXPECT_FALSE(dedup.IsDuplicate(9, 0xFFFFFF00u));
  EXPECT_TRUE(dedup.IsDuplicate(9, 0xFFFFFF00u));
  EXPECT_FALSE(dedup.IsDuplicate(9, 0xFFFFFF01u));
  EXPECT_TRUE(dedup.IsDuplicate(9, 0xFFFFFF01u));
}

TEST(FaultFabric, SendStampsPerLinkSequenceNumbers) {
  RealClock clock;
  Network net(&clock);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.Send(TestMessage()).ok());
  ASSERT_TRUE(net.Send(TestMessage()).ok());
  auto first = net.Inbox(0)->TryPop();
  auto second = net.Inbox(0)->TryPop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, 1u);
  EXPECT_EQ(second->seq, 2u);
}

TEST(FaultFabric, DelayedMessageToUnregisteredDestCountsUnknownDest) {
  // Regression: a due delayed message whose destination inbox had been
  // unregistered was silently discarded — no counter, no drop cause.
  RealClock clock;
  Network::Options opts;
  opts.delay_us_max = 1;
  opts.delay_prob = 1.0;
  Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.RegisterNode(2).ok());

  Message m = TestMessage();
  m.dst = 2;
  ASSERT_TRUE(net.Send(std::move(m)).ok());
  ASSERT_EQ(net.delayed_in_flight(), 1u);
  ASSERT_TRUE(net.UnregisterNode(2).ok());
  EXPECT_EQ(net.UnregisterNode(2).code(), StatusCode::kNotFound);

  EXPECT_EQ(net.FlushDelayed(), 0u);
  EXPECT_EQ(net.delayed_in_flight(), 0u);
  EXPECT_EQ(net.messages_dropped(), 1u);
  auto counters = net.registry()->CounterValues();
  EXPECT_EQ(counters.at("net.dropped{cause=unknown_dest}"), 1u);
}

TEST(FaultFabric, DueBatchSurvivesOneClosedInbox) {
  // Regression: Send returned NetworkError as soon as one due-batch Push
  // failed, destroying the remaining collected messages bound for other,
  // healthy inboxes. The rest of the batch must be delivered first.
  // Every send advances the virtual clock by one tick (base_latency_us = 1),
  // so two messages only share a due batch when the first draws a 2-tick
  // delay and the second a 1-tick delay. The draws are seeded-random in
  // [1, delay_us_max]; probe seeds until one lines them up.
  RealClock clock;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Network::Options opts;
    opts.link_model.base_latency_us = 1;
    opts.delay_us_max = 2;
    opts.delay_prob = 1.0;
    opts.fault_seed = seed;
    Network net(&clock, opts);
    for (NodeId id = 0; id < 4; ++id) ASSERT_TRUE(net.RegisterNode(id).ok());

    // The first due message targets node 2 (whose inbox we close), the
    // second targets healthy node 3.
    Message a = TestMessage();
    a.dst = 2;
    ASSERT_TRUE(net.Send(std::move(a)).ok());
    Message b = TestMessage();
    b.dst = 3;
    ASSERT_TRUE(net.Send(std::move(b)).ok());
    if (net.delayed_in_flight() != 2) continue;  // a came due during send b
    net.Inbox(2)->Close();

    // This send advances the clock past both due times and collects the
    // batch: node 2's push fails, node 3's must still arrive.
    Message c = TestMessage();
    c.dst = 0;
    Status sent = net.Send(std::move(c));
    if (net.delayed_in_flight() != 1) continue;  // batch wasn't both a and b
    EXPECT_EQ(sent.code(), StatusCode::kNetworkError);
    auto delivered = net.Inbox(3)->TryPop();
    ASSERT_TRUE(delivered.has_value());
    EXPECT_EQ(delivered->dst, 3u);
    return;
  }
  FAIL() << "no seed in [0, 64) produced a two-message due batch";
}

namespace {
/// A clock that advances one microsecond per reading, so any two NowUs calls
/// observably differ — the stamping-point probe below depends on that.
class SteppingClock : public Clock {
 public:
  TimestampUs NowUs() const override { return ++now_us_; }

 private:
  mutable TimestampUs now_us_ = 0;
};
}  // namespace

TEST(FaultFabric, SendTimeStampedOnceForAllDeliveryPaths) {
  // Regression: the delayed path stamped send_time_us inside the lock while
  // the inline path stamped after it, so a message that was both duplicated
  // and delayed carried two different stamps. All copies share one stamping
  // point now.
  SteppingClock clock;
  Network::Options opts;
  opts.duplicate_prob = 1.0;
  opts.delay_us_max = 1;
  opts.delay_prob = 1.0;
  Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());

  ASSERT_TRUE(net.Send(TestMessage()).ok());
  // The undelayed duplicate arrives first; the delayed original follows.
  auto dup = net.Inbox(0)->TryPop();
  ASSERT_TRUE(dup.has_value());
  ASSERT_EQ(net.FlushDelayed(), 1u);
  auto orig = net.Inbox(0)->TryPop();
  ASSERT_TRUE(orig.has_value());
  EXPECT_GT(orig->send_time_us, 0);
  EXPECT_EQ(dup->send_time_us, orig->send_time_us);
}

}  // namespace
}  // namespace dema::net
