// Connection-level chaos over the forked TCP cluster: real OS processes,
// scheduled mid-window socket severances (plus optional CRC-dropped frames),
// and the acceptance bar of the resilience work — the faulted run's
// quantiles must be byte-identical to a fault-free in-process run of the
// same seeded workload, with zero degraded windows, while the counters
// prove the faults actually fired.
//
// Kept in its own binary: RunTcpConnChaos forks, which must happen before
// the process creates any threads, and mixes badly with sanitizer runtimes
// (excluded from DEMA_SANITIZE / DEMA_TSAN builds).

#include <gtest/gtest.h>

#include "sim/chaos.h"
#include "sim/driver.h"
#include "sim/tcp_run.h"
#include "sim/topology.h"

namespace dema {
namespace {

sim::SystemConfig ChaosConfig(size_t locals) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = locals;
  config.gamma = 500;
  config.quantiles = {0.25, 0.5, 0.99};
  // Wire traffic must be a pure function of the seeded data for exact
  // parity (see LoopbackClusterMatchesSimulationExactly).
  config.adaptive_gamma = false;
  return config;
}

sim::WorkloadConfig ChaosWorkload(const sim::SystemConfig& config,
                                  uint64_t windows, uint64_t rate) {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 10'000;
  dist.stddev = 25;
  sim::WorkloadConfig workload = sim::MakeUniformWorkload(
      config.num_locals, windows, rate, dist);
  workload.window_len_us = config.window_len_us;
  return workload;
}

TEST(TcpConnChaos, RepeatedMidWindowKillsYieldExactQuantiles) {
  sim::SystemConfig config = ChaosConfig(3);
  sim::WorkloadConfig workload =
      ChaosWorkload(config, /*windows=*/4, /*rate=*/5'000);

  sim::TcpClusterFaultOptions fault;
  auto plan = sim::ParseConnKillSpec("2@2..10");
  ASSERT_TRUE(plan.ok()) << plan.status();
  fault.conn_kill = *plan;
  fault.session.heartbeat_interval_us = MillisUs(20);
  fault.session.auto_reconnect = true;

  auto report = sim::RunTcpConnChaos(config, workload, fault);
  ASSERT_TRUE(report.ok()) << report.status();
  const obs::Registry& registry = *report->metrics.registry;

  // The invariant is the whole point: faults fired AND results are exact.
  EXPECT_TRUE(report->Invariant()) << report->violation;
  EXPECT_GT(registry.CounterValue("net.conn_kills{layer=inject}"), 0u);
  EXPECT_GT(registry.CounterValue("net.peer_down"), 0u);
  EXPECT_GT(registry.CounterValue("net.reconnects"), 0u);
  EXPECT_GT(registry.CounterValue("net.replayed_frames"), 0u);
  EXPECT_EQ(report->degraded_windows, 0u);
  EXPECT_EQ(report->mismatched_windows, 0u);
  EXPECT_EQ(report->outputs.size(), workload.ExpectedWindows());
  EXPECT_EQ(report->metrics.windows_emitted, workload.ExpectedWindows());
}

TEST(TcpConnChaos, KillsPlusFrameCorruptionStillExact) {
  // Stack two independent failure modes: severed sockets (recovered by
  // redial + session replay) and CRC-dropped frames (recovered by the
  // retransmit timeout). Both must stay invisible in the results.
  sim::SystemConfig config = ChaosConfig(3);
  sim::WorkloadConfig workload =
      ChaosWorkload(config, /*windows=*/4, /*rate=*/5'000);

  sim::TcpClusterFaultOptions fault;
  auto plan = sim::ParseConnKillSpec("1@3..8");
  ASSERT_TRUE(plan.ok()) << plan.status();
  fault.conn_kill = *plan;
  fault.corrupt_rate = 0.02;
  fault.corrupt_seed = 7;
  fault.session.heartbeat_interval_us = MillisUs(20);
  fault.session.auto_reconnect = true;

  auto report = sim::RunTcpConnChaos(config, workload, fault);
  ASSERT_TRUE(report.ok()) << report.status();
  const obs::Registry& registry = *report->metrics.registry;
  EXPECT_TRUE(report->Invariant()) << report->violation;
  EXPECT_GT(registry.CounterValue("net.conn_kills{layer=inject}"), 0u);
  EXPECT_GT(registry.CounterValue("net.replayed_frames"), 0u);
  EXPECT_EQ(report->degraded_windows, 0u);
  EXPECT_EQ(report->mismatched_windows, 0u);
}

TEST(TcpConnChaos, ForkedClusterMergesSessionCountersIntoCallerRegistry) {
  // Regression: the forked cluster merged its children's session counters
  // only into a run-owned registry, so a caller-supplied one never saw the
  // locals' kills, redials and replays.
  sim::SystemConfig config = ChaosConfig(3);
  obs::Registry reg;
  config.registry = &reg;
  sim::WorkloadConfig workload =
      ChaosWorkload(config, /*windows=*/4, /*rate=*/5'000);

  sim::TcpClusterFaultOptions fault;
  auto plan = sim::ParseConnKillSpec("2@2..10");
  ASSERT_TRUE(plan.ok()) << plan.status();
  fault.conn_kill = *plan;
  fault.session.heartbeat_interval_us = MillisUs(20);
  fault.session.auto_reconnect = true;

  auto metrics = sim::RunTcpClusterForked(config, workload, fault);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->registry.get(), &reg);
  EXPECT_GT(reg.CounterValue("net.conn_kills{layer=inject}"), 0u);
  EXPECT_GT(reg.CounterValue("net.replayed_frames"), 0u);
  EXPECT_EQ(metrics->windows_emitted, workload.ExpectedWindows());
}

TEST(TcpConnChaos, RejectsFaultFreeAndMisconfiguredRuns) {
  sim::SystemConfig config = ChaosConfig(2);
  sim::WorkloadConfig workload =
      ChaosWorkload(config, /*windows=*/2, /*rate=*/500);

  // No fault at all: a "chaos" run that injects nothing is a config error.
  sim::TcpClusterFaultOptions none;
  EXPECT_FALSE(sim::RunTcpConnChaos(config, workload, none).ok());

  // Conn kills without the resilience knobs could never recover; the
  // harness must refuse up front instead of hanging the cluster.
  sim::TcpClusterFaultOptions no_heartbeat;
  no_heartbeat.conn_kill = *sim::ParseConnKillSpec("1@2..4");
  no_heartbeat.session.auto_reconnect = true;
  EXPECT_FALSE(sim::RunTcpConnChaos(config, workload, no_heartbeat).ok());

  sim::TcpClusterFaultOptions no_redial;
  no_redial.conn_kill = *sim::ParseConnKillSpec("1@2..4");
  no_redial.session.heartbeat_interval_us = MillisUs(20);
  EXPECT_FALSE(sim::RunTcpConnChaos(config, workload, no_redial).ok());
}

TEST(ConnChaosPlan, ParseAndScheduleAreDeterministic) {
  auto plan = sim::ParseConnKillSpec("3@50..400");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kills, 3u);
  EXPECT_EQ(plan->from_frame, 50u);
  EXPECT_EQ(plan->until_frame, 400u);

  // Single-frame shorthand pins the window to exactly that frame.
  auto pinned = sim::ParseConnKillSpec("1@7");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->from_frame, 7u);
  EXPECT_EQ(pinned->until_frame, 8u);

  EXPECT_FALSE(sim::ParseConnKillSpec("0@1..5").ok());
  EXPECT_FALSE(sim::ParseConnKillSpec("2@9..3").ok());
  EXPECT_FALSE(sim::ParseConnKillSpec("nonsense").ok());

  // Same plan + same salt => same schedule; different salts de-synchronize
  // the locals so kills do not land in lockstep.
  auto a = sim::BuildKillSchedule(*plan, /*salt=*/1);
  auto b = sim::BuildKillSchedule(*plan, /*salt=*/1);
  auto c = sim::BuildKillSchedule(*plan, /*salt=*/2);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  for (uint64_t frame : a) {
    EXPECT_GE(frame, plan->from_frame);
    EXPECT_LT(frame, plan->until_frame);
  }
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace dema
