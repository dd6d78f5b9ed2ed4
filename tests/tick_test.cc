// Discrete-event sim core tests: the tick queue's FIFO tie-break, routed
// topology validity, event-driven delivery on the fabric, workload window
// accounting, and the scenario runner's determinism + oracle guarantees.

#include <gtest/gtest.h>

#include <set>

#include "common/clock.h"
#include "net/network.h"
#include "sim/driver.h"
#include "sim/scenario.h"
#include "sim/tick/tick_queue.h"
#include "sim/tick/topology.h"

namespace dema {
namespace {

// --- tick queue -------------------------------------------------------------

TEST(TickQueue, PopsInDueOrderWithFifoTieBreak) {
  tick::TickQueue<int> q;
  q.Push(30, 1);
  q.Push(10, 2);
  q.Push(20, 3);
  q.Push(10, 4);  // same due time as entry 2: FIFO says 2 pops first
  q.Push(10, 5);

  ASSERT_EQ(q.size(), 5u);
  EXPECT_EQ(q.NextDue(), 10u);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 4);
  EXPECT_EQ(q.Pop(), 5);
  EXPECT_EQ(q.NextDue(), 20u);
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_TRUE(q.empty());
}

TEST(TickQueue, TracksPushPopAndPeakStats) {
  tick::TickQueue<int> q;
  for (int i = 0; i < 8; ++i) q.Push(static_cast<uint64_t>(i), i);
  for (int i = 0; i < 3; ++i) q.Pop();
  q.Push(100, 9);
  EXPECT_EQ(q.pushed(), 9u);
  EXPECT_EQ(q.popped(), 3u);
  EXPECT_EQ(q.peak_size(), 8u);
}

// --- topologies -------------------------------------------------------------

/// Walks \p path from \p src: every link must continue from the previous
/// vertex, no vertex may repeat, and the walk must end at \p dst.
void CheckPath(const tick::Topology& topo, NodeId src, NodeId dst,
               const std::vector<uint32_t>& path) {
  ASSERT_FALSE(path.empty());
  ASSERT_LE(path.size(), topo.max_hops());
  uint32_t cur = src;
  std::set<uint32_t> visited{cur};
  for (uint32_t id : path) {
    ASSERT_LT(id, topo.num_links());
    const tick::Link& link = topo.link(id);
    uint32_t next = link.a == cur ? link.b : link.a;
    ASSERT_TRUE(link.a == cur || link.b == cur)
        << "link " << id << " does not continue from vertex " << cur;
    ASSERT_TRUE(visited.insert(next).second) << "route loops at " << next;
    cur = next;
  }
  EXPECT_EQ(cur, dst);
}

TEST(Topology, AllKindsRouteEveryPairValidly) {
  const size_t kEndpoints = 37;  // deliberately not a power/multiple of k
  for (const char* spec : {"star", "tree:fanout=4", "fat-tree", "wan",
                           "wan:regions=7", "fat-tree:k=8", "tree:fanout=2"}) {
    auto topo = tick::Topology::Build(spec, kEndpoints);
    ASSERT_TRUE(topo.ok()) << spec << ": " << topo.status();
    std::vector<uint32_t> path;
    for (NodeId src = 0; src < kEndpoints; ++src) {
      for (NodeId dst = 0; dst < kEndpoints; ++dst) {
        if (src == dst) continue;
        ASSERT_TRUE((*topo)->Route(src, dst, &path).ok()) << spec;
        CheckPath(**topo, src, dst, path);
      }
    }
  }
}

TEST(Topology, RoutesAreDeterministic) {
  auto topo = tick::Topology::Build("fat-tree", 100);
  ASSERT_TRUE(topo.ok());
  std::vector<uint32_t> first, again;
  ASSERT_TRUE((*topo)->Route(3, 97, &first).ok());
  ASSERT_TRUE((*topo)->Route(3, 97, &again).ok());
  EXPECT_EQ(first, again);
}

TEST(Topology, FatTreePicksSmallestSufficientK) {
  auto small = tick::Topology::Build("fat-tree", 16);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ((*small)->name(), "fat-tree:k=4");  // 4^3/4 = 16
  auto big = tick::Topology::Build("fat-tree", 1001);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ((*big)->name(), "fat-tree:k=16");  // 16^3/4 = 1024
}

TEST(Topology, WanCrossRegionRoutesUseAWanLink) {
  auto topo = tick::Topology::Build("wan:regions=4", 9);
  ASSERT_TRUE(topo.ok());
  // Locals 1 and 5 share region 0 with the root; local 2 lives in region 1.
  std::vector<uint32_t> path;
  ASSERT_TRUE((*topo)->Route(0, 5, &path).ok());
  for (uint32_t id : path) {
    EXPECT_NE((*topo)->link(id).tier, tick::LinkTier::kWan);
  }
  ASSERT_TRUE((*topo)->Route(0, 2, &path).ok());
  size_t wan_hops = 0;
  for (uint32_t id : path) {
    if ((*topo)->link(id).tier == tick::LinkTier::kWan) ++wan_hops;
  }
  EXPECT_EQ(wan_hops, 1u);
}

TEST(Topology, RejectsBadSpecs) {
  EXPECT_FALSE(tick::Topology::Build("ring", 8).ok());
  EXPECT_FALSE(tick::Topology::Build("fat-tree:k=3", 8).ok());   // odd k
  EXPECT_FALSE(tick::Topology::Build("fat-tree:k=2", 100).ok()); // too small
  EXPECT_FALSE(tick::Topology::Build("star:fanout=4", 8).ok());  // wrong key
  EXPECT_FALSE(tick::Topology::Build("wan:regions=1", 8).ok());
  EXPECT_FALSE(tick::Topology::Build("tree:fanout=", 8).ok());
  EXPECT_FALSE(tick::Topology::Build("star", 1).ok());
  ASSERT_FALSE(tick::Topology::Build("fat-tree", 0).ok());
}

// --- event-driven delivery --------------------------------------------------

net::Message EventMessage(NodeId src, NodeId dst, size_t payload_bytes = 8) {
  net::Message m;
  m.type = net::MessageType::kEventBatch;
  m.src = src;
  m.dst = dst;
  m.payload.assign(payload_bytes, 0);
  return m;
}

TEST(EventDelivery, NothingArrivesUntilEventsAdvance) {
  RealClock clock;
  net::Network::Options opts;
  opts.delivery = net::Network::DeliveryMode::kEvent;
  net::Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());

  ASSERT_TRUE(net.Send(EventMessage(1, 0)).ok());
  EXPECT_FALSE(net.Inbox(0)->TryPop().has_value());
  EXPECT_EQ(net.pending_events(), 1u);
  EXPECT_EQ(net.AdvanceEvents(), 1u);
  EXPECT_TRUE(net.Inbox(0)->TryPop().has_value());
  EXPECT_EQ(net.AdvanceEvents(), 0u);  // idle queue
}

TEST(EventDelivery, VirtualTimeOrdersArrivalsByTransferTime) {
  // A big message sent first arrives after a small message sent second: the
  // event queue models per-byte serialization delay, not call order.
  RealClock clock;
  net::Network::Options opts;
  opts.delivery = net::Network::DeliveryMode::kEvent;
  opts.link_model.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: 1 us per byte
  net::Network net(&clock, opts);
  for (NodeId id = 0; id < 3; ++id) ASSERT_TRUE(net.RegisterNode(id).ok());

  ASSERT_TRUE(net.Send(EventMessage(1, 0, 10'000)).ok());
  ASSERT_TRUE(net.Send(EventMessage(2, 0, 10)).ok());
  while (net.pending_events() > 0) net.AdvanceEvents();
  auto first = net.Inbox(0)->TryPop();
  auto second = net.Inbox(0)->TryPop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->src, 2u);
  EXPECT_EQ(second->src, 1u);
  EXPECT_GT(net.virtual_now_us(), 10'000u);
}

TEST(EventDelivery, RoutedHopsRecordPerTierLatencies) {
  RealClock clock;
  auto topo = tick::Topology::Build("fat-tree:k=4", 16);
  ASSERT_TRUE(topo.ok());
  net::Network::Options opts;
  opts.delivery = net::Network::DeliveryMode::kEvent;
  opts.topology = *topo;
  net::Network net(&clock, opts);
  for (NodeId id = 0; id < 16; ++id) ASSERT_TRUE(net.RegisterNode(id).ok());

  // 0 and 15 are in different pods: the route crosses access, agg, and core.
  ASSERT_TRUE(net.Send(EventMessage(15, 0)).ok());
  uint64_t hop_events = 0;
  while (net.pending_events() > 0) hop_events += net.AdvanceEvents();
  EXPECT_EQ(hop_events, 6u);
  EXPECT_TRUE(net.Inbox(0)->TryPop().has_value());
  auto counters = net.registry()->CounterValues();
  EXPECT_EQ(counters.at("sim.events"), 6u);
  EXPECT_EQ(counters.at("sim.ticks"), 6u);
  for (const char* tier : {"access", "agg", "core"}) {
    auto* hist = net.registry()->FindHistogram(
        std::string("sim.hop_latency_us{tier=") + tier + "}");
    ASSERT_NE(hist, nullptr) << tier;
    EXPECT_GT(hist->Summarize().count, 0u) << tier;
  }
}

TEST(EventDelivery, FinalHopDropsToUnregisteredDestination) {
  // The delivery-time state decides: a destination unregistered while the
  // message was in flight is a counted unknown_dest drop, not a crash or a
  // silent vanish.
  RealClock clock;
  net::Network::Options opts;
  opts.delivery = net::Network::DeliveryMode::kEvent;
  net::Network net(&clock, opts);
  ASSERT_TRUE(net.RegisterNode(0).ok());
  ASSERT_TRUE(net.RegisterNode(1).ok());
  ASSERT_TRUE(net.Send(EventMessage(1, 0)).ok());
  ASSERT_TRUE(net.UnregisterNode(0).ok());
  EXPECT_EQ(net.AdvanceEvents(), 1u);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.registry()->CounterValues().at("net.dropped{cause=unknown_dest}"),
            1u);
}

// --- workload window accounting ---------------------------------------------

TEST(WorkloadConfigTest, ExpectedWindowsTumbling) {
  sim::WorkloadConfig load;
  load.num_windows = 7;
  load.window_len_us = kMicrosPerSecond;
  load.window_slide_us = 0;  // tumbling
  EXPECT_EQ(load.ExpectedWindows(), 7u);
  load.num_windows = 0;
  EXPECT_EQ(load.ExpectedWindows(), 0u);
}

TEST(WorkloadConfigTest, ExpectedWindowsSliding) {
  // len 1s, slide 250ms, horizon 2 window-lengths = 2s of event time:
  // windows end at 1.0, 1.25, 1.5, 1.75, 2.0 s -> 5 closed windows.
  sim::WorkloadConfig load;
  load.num_windows = 2;
  load.window_len_us = kMicrosPerSecond;
  load.window_slide_us = kMicrosPerSecond / 4;
  EXPECT_EQ(load.ExpectedWindows(), 5u);
  // Slide == length degenerates to tumbling.
  load.window_slide_us = kMicrosPerSecond;
  EXPECT_EQ(load.ExpectedWindows(), 2u);
  // Horizon shorter than one window: nothing ever closes.
  load.num_windows = 0;
  load.window_slide_us = kMicrosPerSecond / 4;
  EXPECT_EQ(load.ExpectedWindows(), 0u);
}

// --- scenarios --------------------------------------------------------------

sim::SystemConfig ScenarioConfig(size_t locals) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = locals;
  config.gamma = 64;
  config.quantiles = {0.5, 0.99};
  return config;
}

sim::WorkloadConfig ScenarioWorkload(const sim::SystemConfig& config,
                                     uint64_t windows = 3, double rate = 400) {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  dist.lo = 0;
  dist.hi = 1000;
  sim::WorkloadConfig load =
      sim::MakeUniformWorkload(config.num_locals, windows, rate, dist);
  load.window_len_us = config.window_len_us;
  return load;
}

TEST(Scenario, FaultFreeRunsMatchFlatOracleOnEveryTopology) {
  sim::SystemConfig config = ScenarioConfig(24);
  sim::WorkloadConfig load = ScenarioWorkload(config);
  for (const char* topology : {"flat", "star", "tree:fanout=4", "fat-tree",
                               "wan:regions=3"}) {
    sim::ScenarioOptions options;
    options.topology = topology;
    auto report = sim::RunScenario(config, load, options);
    ASSERT_TRUE(report.ok()) << topology << ": " << report.status();
    EXPECT_TRUE(report->Invariant()) << topology << ": " << report->violation;
    EXPECT_EQ(report->exact_windows, load.num_windows) << topology;
    EXPECT_EQ(report->degraded_windows, 0u) << topology;
    EXPECT_GT(report->counter("sim.events"), 0u) << topology;
    EXPECT_GT(report->counter("sim.ticks"), 0u) << topology;
  }
}

TEST(Scenario, RoutedRunEmitsSameQuantilesAsFlatInlineRun) {
  // The topology adds hops and latency but must never change the answer:
  // a fat-tree scenario and the flat inline-delivery driver agree bit-for-bit.
  sim::SystemConfig config = ScenarioConfig(8);
  sim::WorkloadConfig load = ScenarioWorkload(config);
  auto flat = sim::RunSync(config, load);
  ASSERT_TRUE(flat.ok()) << flat.status();

  sim::ScenarioOptions options;
  options.topology = "fat-tree";
  auto routed = sim::RunScenario(config, load, options);
  ASSERT_TRUE(routed.ok()) << routed.status();
  ASSERT_EQ(routed->missing_windows, 0u);
  // RunSync checked itself against window count; compare values via oracle
  // verdicts: every routed window is exact, so equal to the flat answers.
  EXPECT_EQ(routed->exact_windows, load.num_windows);
  EXPECT_EQ(routed->network_total.messages, flat->network_total.messages);
  EXPECT_EQ(routed->network_total.bytes, flat->network_total.bytes);
}

TEST(Scenario, SameSeedIsByteIdenticalAcrossRunsEvenUnderChaos) {
  sim::SystemConfig config = ScenarioConfig(16);
  sim::WorkloadConfig load = ScenarioWorkload(config);
  sim::ScenarioOptions options;
  options.topology = "fat-tree";
  auto plan = sim::ParseFaultSchedule(
      "drop=0.02,dup=0.03,delay-us=300,delay-prob=0.3,corrupt=0.01,seed=11");
  ASSERT_TRUE(plan.ok()) << plan.status();
  options.faults = *plan;

  auto first = sim::RunScenario(config, load, options);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = sim::RunScenario(config, load, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(first->Invariant()) << first->violation;
  EXPECT_GT(first->counter("net.dropped") + first->duplicates() +
                first->counter("net.delayed"),
            0u);
  EXPECT_EQ(sim::DescribeScenarioDiff(*first, *second), "");

  // A different seed must visibly change the fault schedule.
  options.faults.seed = 12;
  auto reseeded = sim::RunScenario(config, load, options);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status();
  EXPECT_NE(sim::DescribeScenarioDiff(*first, *reseeded), "");
}

TEST(Scenario, FaultFreeBaselineIsExactOnInlineFabric) {
  // Fault-free runs accept every system kind, the inline fabric included.
  sim::SystemConfig config = ScenarioConfig(4);
  config.kind = sim::SystemKind::kCentralExact;
  sim::WorkloadConfig load = ScenarioWorkload(config);
  sim::ScenarioOptions options;
  options.topology = "inline";
  auto report = sim::RunScenario(config, load, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->Invariant()) << report->violation;
  EXPECT_EQ(report->topology, "inline");
  EXPECT_EQ(report->exact_windows, load.num_windows);
  EXPECT_EQ(report->counter("sim.events"), 0u);
}

TEST(Scenario, RejectsScheduledFaults) {
  sim::SystemConfig config = ScenarioConfig(2);
  sim::WorkloadConfig load = ScenarioWorkload(config, 1);
  sim::ScenarioOptions options;
  options.faults.crashes.push_back(sim::CrashEvent{1, 0, 1});
  EXPECT_EQ(sim::RunScenario(config, load, options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dema
