// Out-of-order delivery and allowed lateness: the disordered source's
// bounded-disorder guarantee, exactness when the watermark hold-back covers
// the disorder, and visible (counted) drops when it does not.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/clock.h"
#include "dema/local_node.h"
#include "gen/disorder.h"
#include "obs/registry.h"
#include "sim/driver.h"
#include "sim/topology.h"
#include "stream/quantile.h"
#include "stream/window_manager.h"

namespace dema {
namespace {

gen::GeneratorConfig BaseGen(uint64_t seed = 5) {
  gen::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.node = 1;
  cfg.distribution.kind = gen::DistributionKind::kUniform;
  cfg.distribution.lo = 0;
  cfg.distribution.hi = 1000;
  cfg.event_rate = 2000;
  return cfg;
}

TEST(DisorderedSource, ZeroDisorderIsIdentity) {
  auto plain = gen::StreamGenerator::Create(BaseGen());
  ASSERT_TRUE(plain.ok());
  auto source = gen::DisorderedSource::Create(BaseGen(), {0, 9});
  ASSERT_TRUE(source.ok());
  auto delivered = (*source)->DeliverAll(SecondsUs(1));
  ASSERT_EQ(delivered.size(), 2000u);
  for (const Event& e : delivered) {
    EXPECT_EQ(e, (*plain)->Next());
  }
}

TEST(DisorderedSource, DeliversEveryEventExactlyOnce) {
  auto source = gen::DisorderedSource::Create(BaseGen(), {MillisUs(50), 9});
  ASSERT_TRUE(source.ok());
  auto delivered = (*source)->DeliverAll(SecondsUs(2));
  auto plain = gen::StreamGenerator::Create(BaseGen());
  ASSERT_TRUE(plain.ok());
  std::vector<Event> expected = (*plain)->GenerateWindow(0, SecondsUs(2));

  ASSERT_EQ(delivered.size(), expected.size());
  auto key = [](const Event& e) { return e; };
  std::sort(delivered.begin(), delivered.end());
  std::sort(expected.begin(), expected.end());
  (void)key;
  EXPECT_EQ(delivered, expected);
}

TEST(DisorderedSource, ActuallyShufflesWithinBound) {
  const DurationUs kDisorder = MillisUs(50);
  auto source = gen::DisorderedSource::Create(BaseGen(), {kDisorder, 9});
  ASSERT_TRUE(source.ok());
  auto delivered = (*source)->DeliverAll(SecondsUs(2));

  uint64_t inversions = 0;
  TimestampUs max_seen = 0;
  for (const Event& e : delivered) {
    if (e.timestamp < max_seen) {
      ++inversions;
      // Bounded disorder: nothing is overtaken by more than the bound.
      EXPECT_LE(max_seen - e.timestamp, kDisorder);
    }
    max_seen = std::max(max_seen, e.timestamp);
  }
  EXPECT_GT(inversions, delivered.size() / 10);  // it really is out of order
}

TEST(AllowedLateness, DemaStaysExactWhenLatenessCoversDisorder) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 3;
  config.gamma = 64;
  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      3, /*num_windows=*/5, /*event_rate=*/2000, BaseGen().distribution);
  load.window_len_us = config.window_len_us;
  load.max_disorder_us = MillisUs(80);
  load.allowed_lateness_us = MillisUs(80);

  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  ASSERT_TRUE(system_result.ok());
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::SyncDriver driver(&system, &network);
  driver.set_record_events(true);
  Status st = driver.Run(load);
  ASSERT_TRUE(st.ok()) << st;

  ASSERT_EQ(driver.outputs().size(), 5u);
  for (const auto& out : driver.outputs()) {
    std::vector<double> values;
    for (const Event& e : driver.recorded_events()[out.window_id]) {
      values.push_back(e.value);
    }
    ASSERT_EQ(out.global_size, values.size()) << "window " << out.window_id;
    auto oracle = stream::ExactQuantileValues(values, 0.5);
    ASSERT_TRUE(oracle.ok());
    EXPECT_DOUBLE_EQ(out.values[0], *oracle) << "window " << out.window_id;
  }
}

TEST(AllowedLateness, ExactForOtherSystemsToo) {
  for (auto kind : {sim::SystemKind::kCentralExact, sim::SystemKind::kDesisMerge}) {
    sim::SystemConfig config;
    config.kind = kind;
    config.num_locals = 2;
    sim::WorkloadConfig load = sim::MakeUniformWorkload(
        2, /*num_windows=*/4, /*event_rate=*/2000, BaseGen().distribution);
    load.window_len_us = config.window_len_us;
    load.max_disorder_us = MillisUs(40);
    load.allowed_lateness_us = MillisUs(40);
    RealClock clock;
    net::Network network(&clock);
    auto system_result = sim::BuildSystem(config, &network, &clock);
    ASSERT_TRUE(system_result.ok());
    sim::System system = std::move(system_result).MoveValueUnsafe();
    sim::SyncDriver driver(&system, &network);
    driver.set_record_events(true);
    ASSERT_TRUE(driver.Run(load).ok());
    for (const auto& out : driver.outputs()) {
      std::vector<double> values;
      for (const Event& e : driver.recorded_events()[out.window_id]) {
        values.push_back(e.value);
      }
      auto oracle = stream::ExactQuantileValues(values, 0.5);
      ASSERT_TRUE(oracle.ok());
      EXPECT_DOUBLE_EQ(out.values[0], *oracle);
    }
  }
}

TEST(AllowedLateness, InsufficientLatenessDropsButCompletes) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 64;
  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      2, /*num_windows=*/4, /*event_rate=*/2000, BaseGen().distribution);
  load.window_len_us = config.window_len_us;
  load.max_disorder_us = MillisUs(100);
  load.allowed_lateness_us = 0;  // aggressive watermark: some drops expected

  obs::Registry registry;
  config.registry = &registry;
  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  ASSERT_TRUE(system_result.ok());
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::SyncDriver driver(&system, &network);
  Status st = driver.Run(load);
  ASSERT_TRUE(st.ok()) << st;  // drops must not wedge the pipeline
  ASSERT_EQ(driver.outputs().size(), 4u);
  uint64_t total_in_windows = 0;
  for (const auto& out : driver.outputs()) total_in_windows += out.global_size;
  EXPECT_LT(total_in_windows, driver.events_ingested());  // something dropped
  EXPECT_GT(total_in_windows, driver.events_ingested() * 8 / 10);  // not much
  // Every drop is visible: the locals' late-event counters add up to exactly
  // the events missing from the windows.
  uint64_t late = 0;
  for (const auto& [name, value] : registry.CounterValues()) {
    if (name.rfind("local.late_events{", 0) == 0) late += value;
  }
  EXPECT_GT(late, 0u);
  EXPECT_EQ(late, driver.events_ingested() - total_in_windows);
}

TEST(WindowManagerLateness, HeldBackWatermarkAdmitsStragglers) {
  stream::WindowManager wm(SecondsUs(1));
  wm.OnEvent(Event{1, 100, 1, 0});
  // Watermark held back: although we saw t=1.2s, only advance to 1.2s - 0.3s.
  wm.AdvanceWatermark(SecondsUs(1) + MillisUs(200) - MillisUs(300));
  // A straggler from 0.95s is still admissible.
  EXPECT_TRUE(wm.OnEvent(Event{2, SecondsUs(1) - MillisUs(50), 1, 1}));
  EXPECT_EQ(wm.late_events(), 0u);
  auto closed = wm.AdvanceWatermark(SecondsUs(1) + MillisUs(1));
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].events.size(), 2u);
}

}  // namespace
}  // namespace dema
