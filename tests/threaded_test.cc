// RunSync metrics tests: every system runs end to end through the
// deterministic in-process driver; results, the RunMetrics it reports, and
// failure paths are checked.

#include <gtest/gtest.h>

#include "sim/driver.h"
#include "sim/topology.h"

namespace dema {
namespace {

using sim::SystemConfig;
using sim::SystemKind;
using sim::WorkloadConfig;

WorkloadConfig SmallWorkload(size_t locals, uint64_t windows = 4,
                             double event_rate = 20'000) {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 1000;
  dist.stddev = 5;
  return sim::MakeUniformWorkload(locals, windows, event_rate, dist);
}

class ThreadedSystems : public ::testing::TestWithParam<SystemKind> {};

TEST_P(ThreadedSystems, CompletesAndReportsMetrics) {
  SystemConfig config;
  config.kind = GetParam();
  config.num_locals = 2;
  config.gamma = 500;
  WorkloadConfig load = SmallWorkload(2);

  auto metrics = sim::RunSync(config, load);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->windows_emitted, 4u);
  EXPECT_EQ(metrics->events_ingested, 2u * 4u * 20'000u);
  EXPECT_GT(metrics->throughput_eps, 0);
  EXPECT_EQ(
      metrics->registry->HistogramSummary("root.window_latency_us").count,
      4u);
  EXPECT_GT(metrics->network_total.messages, 0u);
  EXPECT_GT(metrics->network_total.bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ThreadedSystems,
    ::testing::Values(SystemKind::kDema, SystemKind::kCentralExact,
                      SystemKind::kDesisMerge, SystemKind::kTDigestCentral,
                      SystemKind::kTDigestDecentral, SystemKind::kQDigest),
    [](const auto& info) {
      return std::string(sim::SystemKindToString(info.param)) == "Tdigest-dec"
                 ? "TdigestDec"
                 : sim::SystemKindToString(info.param);
    });

TEST(RunSyncMetrics, DemaSendsFarFewerEventsThanCentral) {
  WorkloadConfig load = SmallWorkload(2, /*windows=*/3);

  SystemConfig dema_cfg;
  dema_cfg.kind = SystemKind::kDema;
  dema_cfg.num_locals = 2;
  dema_cfg.gamma = 500;
  auto dema_metrics = sim::RunSync(dema_cfg, load);
  ASSERT_TRUE(dema_metrics.ok()) << dema_metrics.status();

  SystemConfig central_cfg;
  central_cfg.kind = SystemKind::kCentralExact;
  central_cfg.num_locals = 2;
  auto central_metrics = sim::RunSync(central_cfg, load);
  ASSERT_TRUE(central_metrics.ok()) << central_metrics.status();

  // Central ships every event; Dema ships synopses + candidates only.
  EXPECT_EQ(central_metrics->network_total.events,
            central_metrics->events_ingested);
  EXPECT_LT(dema_metrics->network_total.events,
            central_metrics->network_total.events / 5);
  EXPECT_LT(dema_metrics->network_total.bytes,
            central_metrics->network_total.bytes);
}

TEST(RunSyncMetrics, AdaptiveGammaRunsToCompletion) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 3;
  config.gamma = 10'000;  // far from optimal; the controller must adapt
  config.adaptive_gamma = true;
  WorkloadConfig load = SmallWorkload(3, /*windows=*/8);
  auto metrics = sim::RunSync(config, load);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->windows_emitted, 8u);
  EXPECT_GE(metrics->registry->CounterValue("dema.gamma_updates_sent"), 1u);
}

TEST(RunSyncMetrics, MismatchedGeneratorCountFails) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  WorkloadConfig load = SmallWorkload(3);  // 3 generators for 2 locals
  auto metrics = sim::RunSync(config, load);
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunSyncMetrics, DemaStatsArePopulated) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 1000;
  auto metrics = sim::RunSync(config, SmallWorkload(2));
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const obs::Registry& registry = *metrics->registry;
  EXPECT_EQ(registry.CounterValue("dema.windows"), 4u);
  EXPECT_GT(registry.CounterValue("dema.synopsis_slices"), 0u);
  EXPECT_GT(registry.CounterValue("dema.candidate_events"), 0u);
  EXPECT_EQ(registry.CounterValue("dema.global_events"),
            metrics->events_ingested);
}

TEST(RunSyncMetrics, PerTypeTrafficBreakdown) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 1000;
  auto metrics = sim::RunSync(config, SmallWorkload(2));
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->by_type[net::MessageType::kSynopsisBatch].messages, 0u);
  EXPECT_GT(metrics->by_type[net::MessageType::kCandidateRequest].messages, 0u);
  EXPECT_GT(metrics->by_type[net::MessageType::kCandidateReply].events, 0u);
  // Raw events travel only in candidate replies for Dema.
  EXPECT_EQ(metrics->by_type[net::MessageType::kEventBatch].messages, 0u);
}

}  // namespace
}  // namespace dema
