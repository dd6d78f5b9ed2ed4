// TCP crash/relaunch test: a forked local process is killed mid-run at a
// window boundary and relaunched from its checkpoint. The cluster must still
// emit every window without degradation and account for every event.
//
// Kept in its own binary: RunTcpClusterForked forks, which must happen before
// the process creates any threads, and mixes badly with sanitizer runtimes
// (this test is excluded from DEMA_SANITIZE / DEMA_TSAN builds).

#include <gtest/gtest.h>

#include "sim/driver.h"
#include "sim/tcp_run.h"
#include "sim/topology.h"

namespace dema {
namespace {

TEST(TcpCrashRestart, ForkedClusterSurvivesKillAndRelaunch) {
  constexpr size_t kLocals = 3;
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = kLocals;
  config.gamma = 500;
  config.quantiles = {0.5, 0.99};
  config.adaptive_gamma = false;
  // The root must retry candidate requests that died with the crashed
  // process; ticks fire on the root's idle beats (~2ms apart).
  config.recovery.deadline_ticks = 100;
  config.recovery.max_retries = 6;

  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 10'000;
  dist.stddev = 25;
  sim::WorkloadConfig workload = sim::MakeUniformWorkload(
      kLocals, /*num_windows=*/5, /*event_rate=*/5'000, dist);
  workload.window_len_us = config.window_len_us;

  // Fault-free reference for the event total (the relaunched process refeeds
  // the crash window from its checkpoint cutoff, so nothing may be lost).
  auto reference = sim::RunSync(config, workload);
  ASSERT_TRUE(reference.ok()) << reference.status();

  sim::TcpClusterFaultOptions fault;
  fault.crash_node = 2;
  fault.crash_at_window = 2;
  fault.checkpoint_dir = ::testing::TempDir();

  auto metrics = sim::RunTcpClusterForked(config, workload, fault);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->windows_emitted, workload.ExpectedWindows());
  EXPECT_EQ(metrics->events_ingested, reference->events_ingested);
  // Recovery, not degradation: every window completed exactly.
  EXPECT_EQ(metrics->registry->CounterValue("dema.degraded_windows"), 0u);
}

TEST(TcpCrashRestart, CrashNeedsDeadlinesAndCheckpointDir) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 2;
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  sim::WorkloadConfig workload =
      sim::MakeUniformWorkload(2, /*num_windows=*/2, /*event_rate=*/100, dist);
  workload.window_len_us = config.window_len_us;

  sim::TcpClusterFaultOptions fault;
  fault.crash_node = 1;
  fault.crash_at_window = 1;
  fault.checkpoint_dir = ::testing::TempDir();
  // Without deadlines the root would stall forever on the dead process.
  config.recovery.deadline_ticks = 0;
  EXPECT_FALSE(sim::RunTcpClusterForked(config, workload, fault).ok());

  config.recovery.deadline_ticks = 10;
  fault.checkpoint_dir.clear();
  EXPECT_FALSE(sim::RunTcpClusterForked(config, workload, fault).ok());
}

}  // namespace
}  // namespace dema
