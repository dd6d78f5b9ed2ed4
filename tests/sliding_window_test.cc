// Tests for the sliding-window extension: assigner arithmetic, the window
// manager with overlapping windows, and Dema computing exact quantiles over
// sliding windows end-to-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "sim/driver.h"
#include "sim/topology.h"
#include "stream/quantile.h"
#include "stream/window.h"
#include "stream/window_manager.h"

namespace dema {
namespace {

using stream::SlidingWindowAssigner;
using stream::WindowSpec;

TEST(WindowSpec, NormalizesSlide) {
  EXPECT_TRUE((WindowSpec{1000, 0}).IsTumbling());
  EXPECT_TRUE((WindowSpec{1000, 1000}).IsTumbling());
  EXPECT_TRUE((WindowSpec{1000, 2000}).IsTumbling());  // slide > len clamps
  EXPECT_FALSE((WindowSpec{1000, 500}).IsTumbling());
  EXPECT_EQ((WindowSpec{1000, 500}).slide(), 500);
}

TEST(SlidingAssigner, TumblingDegeneratesToOneWindow) {
  SlidingWindowAssigner a(WindowSpec{1000, 0});
  std::vector<net::WindowId> ids;
  a.AssignWindows(1500, &ids);
  EXPECT_EQ(ids, std::vector<net::WindowId>{1});
}

TEST(SlidingAssigner, OverlapAssignsAllCoveringWindows) {
  // length 1000, slide 250: a point belongs to up to 4 windows.
  SlidingWindowAssigner a(WindowSpec{1000, 250});
  std::vector<net::WindowId> ids;
  a.AssignWindows(1000, &ids);
  // Windows starting at 250, 500, 750, 1000 cover t=1000 (window 0 covers
  // [0, 1000) and just misses it).
  EXPECT_EQ(ids, (std::vector<net::WindowId>{1, 2, 3, 4}));

  ids.clear();
  a.AssignWindows(0, &ids);
  EXPECT_EQ(ids, std::vector<net::WindowId>{0});

  ids.clear();
  a.AssignWindows(999, &ids);
  EXPECT_EQ(ids, (std::vector<net::WindowId>{0, 1, 2, 3}));
}

TEST(SlidingAssigner, WindowBoundsAndClosing) {
  SlidingWindowAssigner a(WindowSpec{1000, 250});
  EXPECT_EQ(a.WindowStart(4), 1000);
  EXPECT_EQ(a.WindowEnd(4), 2000);
  EXPECT_EQ(a.ClosedUpTo(999), 0u);
  EXPECT_EQ(a.ClosedUpTo(1000), 1u);   // window 0 ([0,1000)) closed
  EXPECT_EQ(a.ClosedUpTo(1250), 2u);   // window 1 ([250,1250)) closed too
  EXPECT_EQ(a.ClosedUpTo(2000), 5u);
}

TEST(SlidingAssigner, EveryAssignedWindowActuallyCoversThePoint) {
  for (DurationUs slide : {100, 250, 333, 1000}) {
    SlidingWindowAssigner a(WindowSpec{1000, slide});
    for (TimestampUs t = 0; t < 5000; t += 37) {
      std::vector<net::WindowId> ids;
      a.AssignWindows(t, &ids);
      ASSERT_FALSE(ids.empty());
      for (net::WindowId id : ids) {
        EXPECT_GE(t, a.WindowStart(id));
        EXPECT_LT(t, a.WindowEnd(id));
      }
      // Completeness: the windows just outside the returned range miss t.
      if (ids.front() > 0) {
        EXPECT_GE(t, a.WindowEnd(ids.front() - 1));
      }
      EXPECT_LT(t, a.WindowStart(ids.back() + 1));
    }
  }
}

TEST(SlidingWindowManager, EventsLandInAllCoveringWindows) {
  stream::WindowManager wm(WindowSpec{1000, 500});
  wm.OnEvent(Event{1.0, 750, 1, 0});  // covered by windows 0 ([0,1000)) and 1
  EXPECT_EQ(wm.open_windows(), 2u);
  EXPECT_EQ(wm.buffered_events(), 2u);
  auto closed = wm.AdvanceWatermark(1400);  // closes window 0 ([0,1000)) only
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].id, 0u);
  ASSERT_EQ(closed[0].events.size(), 1u);
  auto rest = wm.AdvanceWatermark(1500);  // window 1 ([500,1500)) ends here
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].events.size(), 1u);
}

// End-to-end: Dema over sliding windows matches a per-window oracle.
TEST(SlidingDema, ExactQuantilesOverOverlappingWindows) {
  const DurationUs kLen = kMicrosPerSecond;
  const DurationUs kSlide = kMicrosPerSecond / 4;

  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 3;
  config.window_len_us = kLen;
  config.window_slide_us = kSlide;
  config.gamma = 64;
  config.quantiles = {0.5};

  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  dist.lo = 0;
  dist.hi = 1000;
  // The workload's default seed and seeds 1–20, so no single stream can
  // make it pass.
  std::vector<uint64_t> seeds = {1000};
  for (uint64_t seed = 1; seed <= 20; ++seed) seeds.push_back(seed);
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::WorkloadConfig load = sim::MakeUniformWorkload(
        3, /*num_windows=*/3, /*event_rate=*/2000, dist, {}, seed);
    load.window_len_us = kLen;
    load.window_slide_us = kSlide;

    RealClock clock;
    net::Network network(&clock);
    auto system_result = sim::BuildSystem(config, &network, &clock);
    ASSERT_TRUE(system_result.ok()) << system_result.status();
    sim::System system = std::move(system_result).MoveValueUnsafe();
    sim::SyncDriver driver(&system, &network);
    driver.set_record_events(true);
    ASSERT_TRUE(driver.Run(load).ok());

    // 3 seconds of events, windows every 250ms closing up to t=3s: ids 0..8.
    ASSERT_EQ(driver.outputs().size(), load.ExpectedWindows());
    EXPECT_EQ(load.ExpectedWindows(), 9u);

    // Rebuild the full event set and compute the oracle per window id.
    std::vector<Event> all;
    for (const auto& chunk : driver.recorded_events()) {
      all.insert(all.end(), chunk.begin(), chunk.end());
    }
    stream::SlidingWindowAssigner assigner(WindowSpec{kLen, kSlide});
    for (const sim::WindowOutput& out : driver.outputs()) {
      std::vector<double> values;
      for (const Event& e : all) {
        if (e.timestamp >= assigner.WindowStart(out.window_id) &&
            e.timestamp < assigner.WindowEnd(out.window_id)) {
          values.push_back(e.value);
        }
      }
      ASSERT_EQ(values.size(), out.global_size) << "window " << out.window_id;
      EXPECT_FALSE(out.degraded) << "window " << out.window_id;
      auto oracle = stream::ExactQuantileValues(values, 0.5);
      ASSERT_TRUE(oracle.ok());
      EXPECT_DOUBLE_EQ(out.values[0], *oracle) << "window " << out.window_id;
    }
  }
}

TEST(SlidingDema, BaselinesRejectSlidingWindows) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kCentralExact;
  config.window_slide_us = config.window_len_us / 2;
  RealClock clock;
  net::Network network(&clock);
  auto result = sim::BuildSystem(config, &network, &clock);
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace dema
