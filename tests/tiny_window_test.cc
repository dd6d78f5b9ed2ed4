// Tiny windows in one round trip: a slice of at most two events is read from
// its synopsis and never fetched, and a local window no bigger than its own
// candidate round trip is cut at γ = 2 and not retained. Covers the cost
// rule against the real encoders, the local cut, a flat window that
// completes at identification, a mixed window that fetches only from its
// large local, and a relay tier over tiny leaves.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>

#include "common/clock.h"
#include "common/rng.h"
#include "dema/adaptive_gamma.h"
#include "dema/local_node.h"
#include "dema/root_node.h"
#include "dema/validate.h"
#include "net/network.h"
#include "sim/pump.h"
#include "sim/tree.h"
#include "stream/quantile.h"

namespace dema::core {
namespace {

constexpr uint64_t kGamma = 1'000;

template <typename Payload>
uint64_t WireSize(const Payload& payload) {
  net::Writer w;
  payload.SerializeTo(&w);
  return w.size();
}

/// Sorted events of one window of \p n events on \p node.
std::vector<Event> SortedEvents(uint64_t n, NodeId node) {
  std::vector<Event> events;
  for (uint32_t i = 0; i < n; ++i) {
    events.push_back(Event{1.5 * i, static_cast<TimestampUs>(i), node, i});
  }
  return events;
}

/// The synopsis batch of \p events cut at \p gamma.
SynopsisBatch CutBatch(const std::vector<Event>& events, uint64_t gamma) {
  SynopsisBatch batch;
  batch.node = 1;
  batch.local_window_size = events.size();
  batch.gamma_used = static_cast<uint32_t>(gamma);
  batch.slices = *CutIntoSlices(events, 1, gamma);
  return batch;
}

TEST(TinyWindowRule, BoundaryForEachCodec) {
  // kFixed: a 10-event window ships complete, an 11-event one and every
  // larger one does not.
  EXPECT_TRUE(CutAtGammaTwo(10, kGamma, net::EventCodec::kFixed));
  EXPECT_FALSE(CutAtGammaTwo(11, kGamma, net::EventCodec::kFixed));
  // An odd size pays a whole synopsis for its one-event trailing slice.
  EXPECT_TRUE(CutAtGammaTwo(8, kGamma, net::EventCodec::kFixed));
  EXPECT_FALSE(CutAtGammaTwo(9, kGamma, net::EventCodec::kFixed));
  // kCompact events can be as small as 4 bytes, so only windows the root
  // already reads from one synopsis ship complete.
  EXPECT_TRUE(CutAtGammaTwo(2, kGamma, net::EventCodec::kCompact));
  EXPECT_FALSE(CutAtGammaTwo(3, kGamma, net::EventCodec::kCompact));
  for (auto [codec, largest] :
       {std::pair{net::EventCodec::kFixed, uint64_t{10}},
        std::pair{net::EventCodec::kCompact, uint64_t{2}}}) {
    for (uint64_t n = largest + 1; n <= kGamma; ++n) {
      ASSERT_FALSE(CutAtGammaTwo(n, kGamma, codec)) << "n=" << n;
    }
  }
  // Only a one-slice window qualifies, and an empty one has nothing to cut.
  EXPECT_TRUE(CutAtGammaTwo(8, 8, net::EventCodec::kFixed));
  EXPECT_FALSE(CutAtGammaTwo(10, 8, net::EventCodec::kFixed));
  EXPECT_FALSE(CutAtGammaTwo(0, kGamma, net::EventCodec::kFixed));
}

/// Bytes of \p batch in the slice form, whichever form it ships in.
uint64_t SliceFormSize(const SynopsisBatch& batch) {
  net::Writer w;
  batch.SerializeSlicesTo(&w);
  return w.size();
}

TEST(TinyWindowRule, MatchesTheSerializedSizes) {
  // The rule compares the γ = 2 synopsis, priced in the slice form, with the
  // one-slice synopsis plus the round trip it saves. Measured with the real
  // encoders, that is exact for kFixed; for kCompact the real reply is at
  // least the rule's, so the rule never fires where the round trip would
  // have been cheaper. What a γ = 2 batch really ships, the events form, is
  // smaller still.
  for (net::EventCodec codec :
       {net::EventCodec::kFixed, net::EventCodec::kCompact}) {
    for (uint64_t n = 1; n <= 40; ++n) {
      const std::vector<Event> events = SortedEvents(n, 1);
      CandidateRequest request;
      request.slice_indices = {0};
      CandidateReply reply;
      reply.node = 1;
      reply.codec = codec;
      reply.events = events;
      SynopsisBatch cut_at_two = CutBatch(events, 2);
      cut_at_two.codec = codec;
      const uint64_t at_two = SliceFormSize(cut_at_two);
      EXPECT_LT(WireSize(cut_at_two), at_two) << "n=" << n;
      const uint64_t round_trip = WireSize(CutBatch(events, kGamma)) +
                                  WireSize(request) + WireSize(reply);
      if (codec == net::EventCodec::kFixed) {
        EXPECT_EQ(CutAtGammaTwo(n, kGamma, codec), at_two <= round_trip)
            << "n=" << n;
      } else if (CutAtGammaTwo(n, kGamma, codec)) {
        EXPECT_LE(at_two, round_trip) << "n=" << n;
      }
    }
  }
}

/// True when \p a and \p b hold the same bits (`Event::operator==` equates
/// -0.0 with +0.0).
bool SameBits(const Event& a, const Event& b) {
  return std::bit_cast<uint64_t>(a.value) == std::bit_cast<uint64_t>(b.value) &&
         a.timestamp == b.timestamp && a.node == b.node && a.seq == b.seq;
}

TEST(SynopsisEventsForm, DecodesToTheGammaTwoCutAndIsNeverLarger) {
  for (net::EventCodec codec :
       {net::EventCodec::kFixed, net::EventCodec::kCompact}) {
    for (uint64_t n = 1; n <= 40; ++n) {
      // Value ties, both signed zeros and negatives; equal values order by
      // timestamp, so -0.0 and +0.0 interleave.
      std::vector<Event> events;
      for (uint32_t i = 0; i < n; ++i) {
        double v = static_cast<double>(static_cast<int>(i % 7) - 3) / 2;
        if (v == 0) v = i % 2 ? -0.0 : 0.0;
        events.push_back(Event{v, static_cast<TimestampUs>(1'000 + 17 * i),
                               i % 3, i});
      }
      std::sort(events.begin(), events.end());
      SynopsisBatch batch = CutBatch(events, 2);
      batch.window_id = 9;
      batch.close_time_us = 123;
      batch.codec = codec;
      net::Writer w;
      batch.SerializeTo(&w);
      EXPECT_LE(w.size(), SliceFormSize(batch)) << "n=" << n;

      net::Reader r(w.buffer());
      SynopsisBatch decoded;
      ASSERT_TRUE(SynopsisBatch::DeserializeInto(&r, &decoded).ok()) << n;
      EXPECT_TRUE(r.AtEnd());
      EXPECT_EQ(decoded.window_id, 9u);
      EXPECT_EQ(decoded.node, 1u);
      EXPECT_EQ(decoded.local_window_size, n);
      EXPECT_EQ(decoded.gamma_used, 2u);
      EXPECT_EQ(decoded.close_time_us, 123);
      const std::vector<SliceSynopsis> want = *CutIntoSlices(events, 1, 2);
      ASSERT_EQ(decoded.slices.size(), want.size()) << "n=" << n;
      for (size_t i = 0; i < want.size(); ++i) {
        const SliceSynopsis& got = decoded.slices[i];
        EXPECT_EQ(got.node, want[i].node);
        EXPECT_EQ(got.index, want[i].index);
        EXPECT_EQ(got.count, want[i].count);
        EXPECT_TRUE(SameBits(got.first, want[i].first)) << n << "/" << i;
        EXPECT_TRUE(SameBits(got.last, want[i].last)) << n << "/" << i;
      }
    }
  }
}

TEST(SynopsisEventsForm, OnlyASingleNodeCutAtTwoShipsAsEvents) {
  const auto form = [](const SynopsisBatch& batch) {
    net::Writer w;
    batch.SerializeTo(&w);
    net::Reader r(w.buffer());
    EXPECT_TRUE(r.Skip(32).ok());  // the header before the form word
    uint32_t word = 0;
    EXPECT_TRUE(r.GetU32(&word).ok());
    return word;
  };
  const std::vector<Event> events = SortedEvents(5, 1);
  EXPECT_EQ(form(CutBatch(events, 2)), kSynopsisEventsForm);
  // Cut at a larger γ, empty, or not the γ = 2 cut of one sorted window: the
  // slice form, its count in the form word.
  EXPECT_EQ(form(CutBatch(events, 4)), 2u);
  EXPECT_EQ(form(CutBatch({}, 2)), 0u);
  SynopsisBatch relayed = CutBatch(events, 2);
  relayed.slices[1].node = 2;  // another node's slice
  EXPECT_EQ(form(relayed), 3u);
  SynopsisBatch overlapping = CutBatch(events, 2);
  std::swap(overlapping.slices[0].first, overlapping.slices[1].first);
  EXPECT_EQ(form(overlapping), 3u);
  SynopsisBatch short_inner = CutBatch(events, 2);
  short_inner.slices[0].count = 1;
  short_inner.local_window_size = 4;
  EXPECT_EQ(form(short_inner), 3u);
}

/// What one local shipped for a window of n events.
struct Closed {
  SynopsisBatch batch;
  size_t retained = 0;
};

Closed CloseOneWindow(uint64_t n) {
  RealClock clock;
  net::Network network(&clock);
  EXPECT_TRUE(network.RegisterNode(0).ok());
  EXPECT_TRUE(network.RegisterNode(1).ok());
  DemaLocalNodeOptions opts;
  opts.id = 1;
  opts.initial_gamma = kGamma;
  DemaLocalNode local(opts, &network, &clock);
  // Out of order, so the close has a sort to do.
  std::vector<Event> events = SortedEvents(n, 1);
  std::reverse(events.begin(), events.end());
  for (const Event& e : events) EXPECT_TRUE(local.OnEvent(e).ok());
  EXPECT_TRUE(local.OnFinish(kMicrosPerSecond).ok());
  auto msg = network.Inbox(0)->TryPop();
  EXPECT_TRUE(msg.has_value());
  net::Reader r(msg->payload);
  Closed closed;
  closed.batch = *SynopsisBatch::Deserialize(&r);
  closed.retained = local.retained_windows();
  return closed;
}

TEST(TinyWindowLocal, CutsAtTwoUpToTheBound) {
  const Closed tiny = CloseOneWindow(10);
  EXPECT_EQ(tiny.batch.gamma_used, 2u);
  EXPECT_EQ(tiny.batch.slices.size(), 5u);
  EXPECT_EQ(tiny.retained, 0u);
  EXPECT_EQ(ValidateSynopsisBatch(tiny.batch, 1, /*strict=*/true), nullptr);

  const Closed above = CloseOneWindow(11);
  EXPECT_EQ(above.batch.gamma_used, kGamma);
  EXPECT_EQ(above.batch.slices.size(), 1u);
  EXPECT_EQ(above.retained, 1u);
}

/// A root over locals 1 and 2 on one fabric, driven message by message.
class TinyWindowFlat : public ::testing::Test {
 protected:
  void Build(uint64_t gamma) {
    network_ = std::make_unique<net::Network>(&clock_);
    for (NodeId id : {0u, 1u, 2u}) ASSERT_TRUE(network_->RegisterNode(id).ok());
    DemaRootNodeOptions root_opts;
    root_opts.locals = {1, 2};
    root_opts.quantiles = kQuantiles;
    root_opts.initial_gamma = gamma;
    root_opts.registry = &registry_;
    root_ = std::make_unique<DemaRootNode>(root_opts, network_.get(), &clock_);
    root_->SetResultCallback(
        [this](const sim::WindowOutput& out) { outputs_.push_back(out); });
    locals_.clear();
    for (NodeId id : {1u, 2u}) {
      DemaLocalNodeOptions opts;
      opts.id = id;
      opts.initial_gamma = gamma;
      opts.registry = &registry_;
      locals_.push_back(
          std::make_unique<DemaLocalNode>(opts, network_.get(), &clock_));
    }
    outputs_.clear();
  }

  /// Feeds \p values into local \p i's window \p w.
  void Feed(size_t i, net::WindowId w, const std::vector<double>& values) {
    const NodeId node = static_cast<NodeId>(i + 1);
    for (uint32_t seq = 0; seq < values.size(); ++seq) {
      const TimestampUs t =
          static_cast<TimestampUs>(w) * kMicrosPerSecond + seq;
      ASSERT_TRUE(locals_[i]->OnEvent(Event{values[seq], t, node, seq}).ok());
    }
  }

  /// Delivers every message queued for the root.
  void DeliverToRoot() {
    while (auto msg = network_->Inbox(0)->TryPop()) {
      ASSERT_TRUE(root_->OnMessage(*msg).ok());
    }
  }

  uint64_t MessagesOfType(net::MessageType type) const {
    auto by_type = network_->StatsByType();
    return by_type[type].messages;
  }

  void ExpectExact(const sim::WindowOutput& out,
                   const std::vector<double>& values) const {
    EXPECT_FALSE(out.degraded) << "window " << out.window_id;
    ASSERT_EQ(out.global_size, values.size()) << "window " << out.window_id;
    for (size_t q = 0; q < kQuantiles.size(); ++q) {
      auto exact = stream::ExactQuantileValues(values, kQuantiles[q]);
      ASSERT_TRUE(exact.ok());
      EXPECT_EQ(out.values[q], *exact)
          << "window " << out.window_id << " q=" << kQuantiles[q];
    }
  }

  const std::vector<double> kQuantiles = {0.25, 0.5, 0.99};
  RealClock clock_;
  obs::Registry registry_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<DemaRootNode> root_;
  std::vector<std::unique_ptr<DemaLocalNode>> locals_;
  std::vector<sim::WindowOutput> outputs_;
};

TEST_F(TinyWindowFlat, AllTinyWindowEmitsAtIdentification) {
  Build(kGamma);
  Feed(0, 0, {7, 3, 9, 1});
  Feed(1, 0, {4, 8, 2});
  for (auto& local : locals_) {
    ASSERT_TRUE(local->OnWatermark(kMicrosPerSecond).ok());
    EXPECT_EQ(local->retained_windows(), 0u);
  }
  // The second synopsis completes identification, and with it the window.
  DeliverToRoot();
  ASSERT_EQ(outputs_.size(), 1u);
  ExpectExact(outputs_[0], {7, 3, 9, 1, 4, 8, 2});
  EXPECT_TRUE(root_->idle());
  EXPECT_FALSE(network_->Inbox(1)->TryPop().has_value());
  EXPECT_FALSE(network_->Inbox(2)->TryPop().has_value());
  EXPECT_EQ(MessagesOfType(net::MessageType::kCandidateRequest), 0u);
  EXPECT_EQ(registry_.CounterValue("dema.synopsis_served_slices"),
            registry_.CounterValue("dema.candidate_slices"));
  EXPECT_GT(registry_.CounterValue("dema.synopsis_served_slices"), 0u);
}

TEST_F(TinyWindowFlat, ManyTinyWindowsStayExactWithoutRoundTrips) {
  Build(kGamma);
  constexpr net::WindowId kWindows = 30;
  std::vector<std::vector<double>> truth(kWindows);
  Rng rng(7);
  for (net::WindowId w = 0; w < kWindows; ++w) {
    for (size_t i = 0; i < locals_.size(); ++i) {
      // 0..8 events: sizes the rule ships complete with kFixed.
      std::vector<double> values(static_cast<size_t>(rng.UniformInt(0, 8)));
      for (double& v : values) v = static_cast<double>(rng.UniformInt(0, 20));
      Feed(i, w, values);
      truth[w].insert(truth[w].end(), values.begin(), values.end());
    }
  }
  for (auto& local : locals_) {
    ASSERT_TRUE(local->OnWatermark(kWindows * kMicrosPerSecond).ok());
  }
  std::vector<sim::PumpNode> nodes = {{0, root_.get()}, {1, locals_[0].get()},
                                      {2, locals_[1].get()}};
  ASSERT_TRUE(sim::PumpToQuiescence(network_.get(), nodes).ok());

  ASSERT_EQ(outputs_.size(), kWindows);
  for (const sim::WindowOutput& out : outputs_) {
    if (truth[out.window_id].empty()) continue;
    ExpectExact(out, truth[out.window_id]);
  }
  EXPECT_EQ(MessagesOfType(net::MessageType::kCandidateRequest), 0u);
  EXPECT_EQ(MessagesOfType(net::MessageType::kCandidateReply), 0u);
  EXPECT_EQ(registry_.GetGauge("local.retained_events_peak{node=1}")->Value(),
            0);
  EXPECT_TRUE(root_->idle());
}

TEST_F(TinyWindowFlat, MixedWindowFetchesOnlyFromTheLargeLocal) {
  // Local 1 ships 3 events cut at 2; local 2 ships 40 events in slices of 8.
  // Wherever local 1's values fall, it is never asked for anything.
  const std::vector<std::vector<double>> tiny_layouts = {
      {-3, -2, -1}, {10.5, 20.5, 30.5}, {100, 200, 300}, {19, 19.5, 20}};
  for (const auto& tiny : tiny_layouts) {
    SCOPED_TRACE("tiny values from " + std::to_string(tiny[0]));
    Build(/*gamma=*/8);
    std::vector<double> large;
    for (int i = 0; i < 40; ++i) large.push_back(i);
    Feed(0, 0, tiny);
    Feed(1, 0, large);
    for (auto& local : locals_) {
      ASSERT_TRUE(local->OnWatermark(kMicrosPerSecond).ok());
    }
    EXPECT_EQ(locals_[0]->retained_windows(), 0u);
    EXPECT_EQ(locals_[1]->retained_windows(), 1u);
    std::vector<sim::PumpNode> nodes = {
        {0, root_.get()}, {1, locals_[0].get()}, {2, locals_[1].get()}};
    ASSERT_TRUE(sim::PumpToQuiescence(network_.get(), nodes).ok());
    EXPECT_EQ(MessagesOfType(net::MessageType::kCandidateRequest), 1u);
    EXPECT_EQ(network_->GetLinkStats(0, 1).counters.messages, 0u);
    EXPECT_EQ(locals_[1]->retained_windows(), 0u);
    ASSERT_EQ(outputs_.size(), 1u);
    std::vector<double> all = tiny;
    all.insert(all.end(), large.begin(), large.end());
    ExpectExact(outputs_[0], all);
    EXPECT_TRUE(root_->idle());
  }
}

TEST(TinyWindowTree, RelaysOverTinyLeavesFinishAtIdentification) {
  RealClock clock;
  net::Network network(&clock);
  sim::TreeConfig config;
  config.num_relays = 2;
  config.locals_per_relay = 2;
  config.gamma = kGamma;
  config.quantiles = {0.5, 0.99};
  auto tree = sim::BuildTreeSystem(config, &network, &clock);
  ASSERT_TRUE(tree.ok()) << tree.status();
  constexpr uint64_t kWindows = 5;
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  dist.lo = 0;
  dist.hi = 1000;
  // 4 events per leaf window: every leaf cuts at γ = 2.
  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      tree->local_ids.size(), kWindows, /*event_rate=*/4, dist);
  load.window_len_us = config.window_len_us;
  for (size_t i = 0; i < tree->local_ids.size(); ++i) {
    load.generators[i].node = tree->local_ids[i];
  }
  sim::SyncDriver driver(&*tree, &network);
  driver.set_record_events(true);
  ASSERT_TRUE(driver.Run(load).ok());

  ASSERT_EQ(driver.outputs().size(), kWindows);
  for (const sim::WindowOutput& out : driver.outputs()) {
    std::vector<double> values;
    for (const Event& e : driver.recorded_events()[out.window_id]) {
      values.push_back(e.value);
    }
    EXPECT_FALSE(out.degraded);
    ASSERT_EQ(out.global_size, values.size());
    EXPECT_EQ(out.global_size, 4 * tree->local_ids.size());
    for (size_t q = 0; q < config.quantiles.size(); ++q) {
      auto exact = stream::ExactQuantileValues(values, config.quantiles[q]);
      ASSERT_TRUE(exact.ok());
      EXPECT_EQ(out.values[q], *exact) << "window " << out.window_id;
    }
  }
  // Nothing was fetched on either tier: each relay retired every window
  // when it shipped the combined synopsis.
  auto by_type = network.StatsByType();
  EXPECT_EQ(by_type[net::MessageType::kCandidateRequest].messages, 0u);
  EXPECT_EQ(by_type[net::MessageType::kCandidateReply].messages, 0u);
  for (size_t r = 0; r < tree->relays.size(); ++r) {
    EXPECT_TRUE(tree->relays[r]->idle());
    EXPECT_EQ(tree->relays[r]->registry()->CounterValue(
                  "dema.windows{node=" + std::to_string(tree->relay_ids[r]) +
                  "}"),
              kWindows);
  }
}

}  // namespace
}  // namespace dema::core
