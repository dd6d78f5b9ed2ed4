// Randomized end-to-end soak: seeded configuration matrix across every Dema
// feature axis — topology size, gamma, quantile sets, sliding windows, wire
// codec, adaptive / per-node gamma, duplicate injection, bounded disorder —
// every combination must produce oracle-exact results.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/clock.h"
#include "common/rng.h"
#include "sim/driver.h"
#include "sim/topology.h"
#include "stream/quantile.h"
#include "stream/window.h"

namespace dema {
namespace {

struct SoakCase {
  uint64_t seed;
  sim::SystemConfig config;
  sim::WorkloadConfig load;
  std::string description;
};

/// Draws one full configuration from the seed.
SoakCase DrawCase(uint64_t seed) {
  Rng rng(seed);
  SoakCase c;
  c.seed = seed;
  c.config.kind = sim::SystemKind::kDema;
  c.config.num_locals = static_cast<size_t>(rng.UniformInt(1, 6));
  c.config.gamma = static_cast<uint64_t>(rng.UniformInt(2, 2000));

  size_t num_quantiles = static_cast<size_t>(rng.UniformInt(1, 3));
  c.config.quantiles.clear();
  for (size_t i = 0; i < num_quantiles; ++i) {
    c.config.quantiles.push_back(rng.Uniform(0.01, 1.0));
  }
  bool sliding = rng.Bernoulli(0.3);
  if (sliding) {
    c.config.window_slide_us = kMicrosPerSecond / rng.UniformInt(2, 4);
  }
  c.config.wire_codec =
      rng.Bernoulli(0.5) ? net::EventCodec::kCompact : net::EventCodec::kFixed;
  c.config.adaptive_gamma = rng.Bernoulli(0.5);
  c.config.per_node_gamma = c.config.adaptive_gamma && rng.Bernoulli(0.5);

  gen::DistributionParams dist;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      dist.kind = gen::DistributionKind::kUniform;
      break;
    case 1:
      dist.kind = gen::DistributionKind::kNormal;
      break;
    case 2:
      dist.kind = gen::DistributionKind::kZipf;
      break;
    default:
      dist.kind = gen::DistributionKind::kSensorWalk;
      dist.stddev = 10;
      break;
  }
  dist.lo = 0;
  dist.hi = 1000;
  std::vector<double> scale_rates;
  for (size_t i = 0; i < c.config.num_locals; ++i) {
    scale_rates.push_back(rng.Bernoulli(0.3) ? rng.Uniform(1, 10) : 1.0);
  }
  c.load = sim::MakeUniformWorkload(
      c.config.num_locals, /*num_windows=*/static_cast<uint64_t>(rng.UniformInt(2, 5)),
      /*event_rate=*/static_cast<double>(rng.UniformInt(500, 4000)), dist,
      scale_rates, /*seed_base=*/seed * 31);
  c.load.window_len_us = c.config.window_len_us;
  c.load.window_slide_us = c.config.window_slide_us;
  if (rng.Bernoulli(0.3)) {
    // Disorder composes with every other axis, including sliding windows.
    c.load.max_disorder_us = MillisUs(rng.UniformInt(10, 80));
    c.load.allowed_lateness_us = c.load.max_disorder_us;
  }

  c.description = "locals=" + std::to_string(c.config.num_locals) +
                  " gamma=" + std::to_string(c.config.gamma) +
                  " q=" + std::to_string(num_quantiles) +
                  (sliding ? " sliding" : "") +
                  (c.config.adaptive_gamma ? " adaptive" : "") +
                  (c.config.per_node_gamma ? " per-node" : "") +
                  (c.load.max_disorder_us ? " disordered" : "") +
                  (c.config.wire_codec == net::EventCodec::kCompact ? " compact"
                                                                    : "");
  return c;
}

class DemaSoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DemaSoak, OracleExactUnderRandomConfig) {
  SoakCase c = DrawCase(GetParam());
  SCOPED_TRACE(c.description);

  RealClock clock;
  net::Network::Options net_opts;
  if (c.seed % 3 == 0) {
    net_opts.duplicate_prob = 0.2;  // at-least-once delivery on a third of runs
    net_opts.fault_seed = c.seed;
  }
  net::Network network(&clock, net_opts);
  auto system_result = sim::BuildSystem(c.config, &network, &clock);
  ASSERT_TRUE(system_result.ok()) << system_result.status();
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::SyncDriver driver(&system, &network);
  driver.set_record_events(true);
  Status st = driver.Run(c.load);
  ASSERT_TRUE(st.ok()) << st;
  ASSERT_EQ(driver.outputs().size(), c.load.ExpectedWindows());

  // Oracle per emitted window id over the recorded events.
  stream::SlidingWindowAssigner assigner(
      stream::WindowSpec{c.load.window_len_us, c.load.window_slide_us});
  std::vector<Event> all;
  for (const auto& chunk : driver.recorded_events()) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  for (const sim::WindowOutput& out : driver.outputs()) {
    std::vector<double> values;
    for (const Event& e : all) {
      if (e.timestamp >= assigner.WindowStart(out.window_id) &&
          e.timestamp < assigner.WindowEnd(out.window_id)) {
        values.push_back(e.value);
      }
    }
    ASSERT_EQ(values.size(), out.global_size) << "window " << out.window_id;
    if (values.empty()) continue;
    for (size_t qi = 0; qi < c.config.quantiles.size(); ++qi) {
      auto oracle = stream::ExactQuantileValues(values, c.config.quantiles[qi]);
      ASSERT_TRUE(oracle.ok());
      EXPECT_DOUBLE_EQ(out.values[qi], *oracle)
          << "window " << out.window_id << " q=" << c.config.quantiles[qi];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemaSoak, ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace dema
