// Equality tests for the executor-backed window-close path: a sim run with
// --workers >= 2 must produce byte-identical window outputs to the inline
// run on the same seed (window ids, global sizes, and quantile values; only
// wall-clock latency may differ).

#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "obs/registry.h"
#include "sim/driver.h"
#include "sim/topology.h"

namespace dema {
namespace {

using sim::SystemConfig;
using sim::SystemKind;
using sim::WorkloadConfig;

WorkloadConfig Workload(size_t locals, uint64_t windows, double rate,
                        uint64_t seed_base = 1000) {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 10'000;
  dist.stddev = 25;
  return sim::MakeUniformWorkload(locals, windows, rate, dist, {}, seed_base);
}

std::vector<sim::WindowOutput> RunOnce(SystemConfig config,
                                       const WorkloadConfig& load,
                                       obs::Registry* registry = nullptr) {
  RealClock clock;
  net::Network network(&clock);
  config.registry = registry;
  auto system = sim::BuildSystem(config, &network, &clock);
  EXPECT_TRUE(system.ok()) << system.status();
  sim::System sys = std::move(system).MoveValueUnsafe();
  if (config.workers > 0) {
    EXPECT_NE(sys.executor, nullptr);
    EXPECT_EQ(sys.executor->workers(), config.workers);
  } else {
    EXPECT_EQ(sys.executor, nullptr);
  }

  WorkloadConfig workload = load;
  workload.window_len_us = config.window_len_us;
  workload.window_slide_us = config.window_slide_us;
  sim::SyncDriver driver(&sys, &network);
  Status st = driver.Run(workload);
  EXPECT_TRUE(st.ok()) << st;
  return driver.outputs();
}

/// Asserts deterministic equality: everything except wall-clock latency.
void ExpectSameOutputs(const std::vector<sim::WindowOutput>& inline_out,
                       const std::vector<sim::WindowOutput>& threaded_out) {
  ASSERT_EQ(inline_out.size(), threaded_out.size());
  for (size_t i = 0; i < inline_out.size(); ++i) {
    const auto& a = inline_out[i];
    const auto& b = threaded_out[i];
    EXPECT_EQ(a.window_id, b.window_id) << "window " << i;
    EXPECT_EQ(a.global_size, b.global_size) << "window " << i;
    EXPECT_EQ(a.degraded, b.degraded) << "window " << i;
    ASSERT_EQ(a.quantiles, b.quantiles) << "window " << i;
    ASSERT_EQ(a.values.size(), b.values.size()) << "window " << i;
    for (size_t q = 0; q < a.values.size(); ++q) {
      // Bit-identical, not approximately equal: both paths must select the
      // exact same event.
      EXPECT_EQ(a.values[q], b.values[q])
          << "window " << i << " quantile " << a.quantiles[q];
    }
  }
}

TEST(ThreadedClose, MatchesInlineBitForBit) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 4;
  config.quantiles = {0.25, 0.5, 0.99};
  config.gamma = 500;

  WorkloadConfig load = Workload(config.num_locals, 6, 8'000);

  config.workers = 0;
  auto inline_out = RunOnce(config, load);
  config.workers = 3;
  auto threaded_out = RunOnce(config, load);
  ASSERT_FALSE(inline_out.empty());
  ExpectSameOutputs(inline_out, threaded_out);
}

TEST(ThreadedClose, MatchesInlineWithAdaptiveGamma) {
  // γ is resolved at submission time, so the adaptive controller must see the
  // same schedule (and cut identical slices) whether closes run inline or on
  // the pool.
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 3;
  config.quantiles = {0.5, 0.9};
  config.gamma = 1'000;
  config.adaptive_gamma = true;

  WorkloadConfig load = Workload(config.num_locals, 8, 5'000, 77);

  config.workers = 0;
  auto inline_out = RunOnce(config, load);
  config.workers = 2;
  auto threaded_out = RunOnce(config, load);
  ASSERT_FALSE(inline_out.empty());
  ExpectSameOutputs(inline_out, threaded_out);
}

TEST(ThreadedClose, MatchesInlineWithSlidingWindows) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 3;
  config.quantiles = {0.5};
  config.gamma = 400;
  config.window_slide_us = config.window_len_us / 4;

  WorkloadConfig load = Workload(config.num_locals, 5, 4'000, 5);

  config.workers = 0;
  auto inline_out = RunOnce(config, load);
  config.workers = 4;
  auto threaded_out = RunOnce(config, load);
  ASSERT_GT(inline_out.size(), 5u);  // sliding: more closes than horizons
  ExpectSameOutputs(inline_out, threaded_out);
}

TEST(ThreadedClose, ExecutorMetricsAccountEveryWindow) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  config.quantiles = {0.5};
  config.gamma = 300;
  config.workers = 2;

  constexpr uint64_t kWindows = 4;
  WorkloadConfig load = Workload(config.num_locals, kWindows, 2'000);

  obs::Registry registry;
  auto outputs = RunOnce(config, load, &registry);
  ASSERT_EQ(outputs.size(), kWindows);

  // One close task per non-empty (node, window) pair.
  const obs::Counter* submitted = registry.FindCounter("exec.tasks_submitted");
  const obs::Counter* completed = registry.FindCounter("exec.tasks_completed");
  ASSERT_NE(submitted, nullptr);
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(submitted->Value(), config.num_locals * kWindows);
  EXPECT_EQ(completed->Value(), submitted->Value());
  EXPECT_EQ(registry.FindGauge("exec.workers")->Value(), 2);

  // Retained-event accounting drains back to zero once all windows are
  // served, and the peak gauge saw at least one retained window.
  int64_t peak = 0;
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (name.rfind("local.retained_events_peak{", 0) == 0) {
      peak = std::max(peak, value);
    }
    if (name.rfind("local.retained_events{", 0) == 0) {
      EXPECT_EQ(value, 0) << name;
    }
  }
  EXPECT_GT(peak, 0);
}

TEST(ThreadedClose, CallerOwnedExecutorIsShared) {
  exec::Executor pool(exec::ExecutorOptions{.workers = 2});
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  config.quantiles = {0.5};
  config.gamma = 300;
  config.executor = &pool;  // overrides `workers`; System owns no pool

  WorkloadConfig load = Workload(config.num_locals, 3, 2'000);

  RealClock clock;
  net::Network network(&clock);
  auto system = sim::BuildSystem(config, &network, &clock);
  ASSERT_TRUE(system.ok()) << system.status();
  sim::System sys = std::move(system).MoveValueUnsafe();
  ASSERT_EQ(sys.executor, nullptr);

  WorkloadConfig workload = load;
  workload.window_len_us = config.window_len_us;
  sim::SyncDriver driver(&sys, &network);
  ASSERT_TRUE(driver.Run(workload).ok());
  EXPECT_EQ(driver.outputs().size(), 3u);
  EXPECT_GT(pool.registry()->FindCounter("exec.tasks_submitted")->Value(), 0u);
}

}  // namespace
}  // namespace dema
