// End-to-end pipeline tests: every system runs the same deterministic
// workload through the synchronous driver and must agree with a full-sort
// oracle (exact systems bit-for-bit, sketch systems within error bounds).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/clock.h"
#include "sim/driver.h"
#include "sim/topology.h"
#include "stream/quantile.h"

namespace dema {
namespace {

using sim::SystemConfig;
using sim::SystemKind;
using sim::WorkloadConfig;

/// Runs one system over the workload with event recording and returns the
/// outputs plus oracle values per window.
struct RunResult {
  std::vector<sim::WindowOutput> outputs;
  std::vector<std::vector<double>> oracle;  // [window][quantile]
  std::vector<std::vector<double>> sorted_values;  // [window], ascending
  uint64_t events = 0;
};

RunResult RunWithOracle(const SystemConfig& config, const WorkloadConfig& load) {
  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  EXPECT_TRUE(system_result.ok()) << system_result.status();
  sim::System system = std::move(system_result).MoveValueUnsafe();

  WorkloadConfig workload = load;
  workload.window_len_us = config.window_len_us;
  sim::SyncDriver driver(&system, &network);
  driver.set_record_events(true);
  Status st = driver.Run(workload);
  EXPECT_TRUE(st.ok()) << st;

  RunResult result;
  result.outputs = driver.outputs();
  result.events = driver.events_ingested();
  for (const auto& window_events : driver.recorded_events()) {
    std::vector<double> values;
    values.reserve(window_events.size());
    for (const Event& e : window_events) values.push_back(e.value);
    std::vector<double> per_q;
    for (double q : config.quantiles) {
      if (values.empty()) {
        per_q.push_back(0.0);
      } else {
        auto oracle = stream::ExactQuantileValues(values, q);
        EXPECT_TRUE(oracle.ok());
        per_q.push_back(*oracle);
      }
    }
    result.oracle.push_back(per_q);
    std::sort(values.begin(), values.end());
    result.sorted_values.push_back(std::move(values));
  }
  return result;
}

WorkloadConfig DefaultWorkload(size_t locals, uint64_t windows = 5,
                               double event_rate = 5000,
                               uint64_t seed = 1000) {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 1000;
  dist.stddev = 5;
  return sim::MakeUniformWorkload(locals, windows, event_rate, dist, {}, seed);
}

void ExpectExact(const RunResult& run, size_t num_windows, size_t num_quantiles) {
  ASSERT_EQ(run.outputs.size(), num_windows);
  ASSERT_EQ(run.oracle.size(), num_windows);
  for (const auto& out : run.outputs) {
    ASSERT_LT(out.window_id, num_windows);
    ASSERT_EQ(out.values.size(), num_quantiles);
    for (size_t qi = 0; qi < num_quantiles; ++qi) {
      EXPECT_DOUBLE_EQ(out.values[qi], run.oracle[out.window_id][qi])
          << "window " << out.window_id << " quantile index " << qi;
    }
  }
}

TEST(Integration, DemaMatchesOracleMedian) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 100;
  auto run = RunWithOracle(config, DefaultWorkload(2));
  ExpectExact(run, 5, 1);
}

TEST(Integration, CentralExactMatchesOracle) {
  SystemConfig config;
  config.kind = SystemKind::kCentralExact;
  config.num_locals = 2;
  auto run = RunWithOracle(config, DefaultWorkload(2));
  ExpectExact(run, 5, 1);
}

TEST(Integration, DesisMatchesOracle) {
  SystemConfig config;
  config.kind = SystemKind::kDesisMerge;
  config.num_locals = 2;
  auto run = RunWithOracle(config, DefaultWorkload(2));
  ExpectExact(run, 5, 1);
}

/// Asserts a sketch's answers have rank error at most \p eps: for every
/// window and quantile q of \p config, q·n lies within eps·n of the
/// estimate's rank interval [#(< v), #(≤ v)] in the exact window. A sketch
/// bounds rank error, not value error, so this holds on any stream. Checked
/// over workload seeds 1–10 and the default 1000.
void ExpectRankErrorWithin(const SystemConfig& config, double eps) {
  std::vector<uint64_t> seeds = {1000};
  for (uint64_t seed = 1; seed <= 10; ++seed) seeds.push_back(seed);
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto run = RunWithOracle(
        config, DefaultWorkload(config.num_locals, 5, 5000, seed));
    ASSERT_EQ(run.outputs.size(), 5u);
    for (const auto& out : run.outputs) {
      const std::vector<double>& sorted = run.sorted_values[out.window_id];
      const double n = static_cast<double>(sorted.size());
      ASSERT_EQ(out.values.size(), config.quantiles.size());
      for (size_t qi = 0; qi < config.quantiles.size(); ++qi) {
        const double v = out.values[qi];
        const double below = static_cast<double>(
            std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
        const double at_or_below = static_cast<double>(
            std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
        const double target = config.quantiles[qi] * n;
        EXPECT_GE(target, below - eps * n)
            << "window " << out.window_id << " q " << config.quantiles[qi]
            << " estimate " << v << " ranks [" << below << ", "
            << at_or_below << "] of " << n;
        EXPECT_LE(target, at_or_below + eps * n)
            << "window " << out.window_id << " q " << config.quantiles[qi]
            << " estimate " << v << " ranks [" << below << ", "
            << at_or_below << "] of " << n;
      }
    }
  }
}

// t-digest with the k1 scale function k(q) = δ/(2π)·asin(2q − 1) lets a
// centroid span at most one unit of k, i.e. Δq ≤ π·sqrt(q(1−q))·2/δ, which
// at the median and compression δ = 200 is π/200 ≈ 0.0157 of the weight.
// Interpolating inside the centroid holding q·n is off by at most that
// span, so ε = 0.02 bounds the rank error with a margin for merging.
constexpr double kTDigestRankEps = 0.02;

TEST(Integration, TDigestCentralIsClose) {
  SystemConfig config;
  config.kind = SystemKind::kTDigestCentral;
  config.num_locals = 2;
  config.tdigest_compression = 200;
  ExpectRankErrorWithin(config, kTDigestRankEps);
}

TEST(Integration, TDigestDecentralIsClose) {
  SystemConfig config;
  config.kind = SystemKind::kTDigestDecentral;
  config.num_locals = 3;
  config.tdigest_compression = 200;
  ExpectRankErrorWithin(config, kTDigestRankEps);
}

TEST(Integration, QDigestIsCloseWithinUniverseBound) {
  SystemConfig config;
  config.kind = SystemKind::kQDigest;
  config.num_locals = 3;
  config.qdigest_lo = 0;
  config.qdigest_hi = 1000;  // matches the workload domain
  config.qdigest_bits = 16;
  config.qdigest_k = 256;
  // The documented q-digest bound: rank error <= n·bits/k = 6.25%.
  ExpectRankErrorWithin(config, 16.0 / 256.0);
}

TEST(Integration, DemaIncrementalSortModeMatchesOracle) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 100;
  config.sort_mode = stream::SortMode::kIncremental;
  auto run = RunWithOracle(config, DefaultWorkload(2));
  ExpectExact(run, 5, 1);
}

TEST(Integration, CompactWireCodecStaysExactEverywhere) {
  for (auto kind : {SystemKind::kDema, SystemKind::kCentralExact,
                    SystemKind::kDesisMerge}) {
    SystemConfig config;
    config.kind = kind;
    config.num_locals = 2;
    config.gamma = 100;
    config.wire_codec = net::EventCodec::kCompact;
    auto run = RunWithOracle(config, DefaultWorkload(2));
    ExpectExact(run, 5, 1);
  }
}

TEST(Integration, DemaMultiQuantile) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 3;
  config.gamma = 64;
  config.quantiles = {0.25, 0.5, 0.75};
  auto run = RunWithOracle(config, DefaultWorkload(3));
  ExpectExact(run, 5, 3);
}

TEST(Integration, DemaAdaptiveGammaStaysExact) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 1000;
  config.adaptive_gamma = true;
  auto run = RunWithOracle(config, DefaultWorkload(2, /*windows=*/10));
  ExpectExact(run, 10, 1);
}

TEST(Integration, DemaNaiveSelectionStaysExact) {
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 100;
  config.naive_selection = true;
  auto run = RunWithOracle(config, DefaultWorkload(2));
  ExpectExact(run, 5, 1);
}

// --- Property sweep: Dema exactness across distributions, gamma, node
// counts, quantiles, and scale-rate overlap patterns. -----------------------

struct SweepParam {
  gen::DistributionKind dist;
  size_t locals;
  uint64_t gamma;
  double quantile;
  std::vector<double> scale_rates;
  const char* name;
};

// gtest prints unprintable params as a byte dump that includes the padding
// and the name pointer, which would put build-dependent bytes into the
// test names.
void PrintTo(const SweepParam& p, std::ostream* os) { *os << p.name; }

class DemaExactnessSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DemaExactnessSweep, MatchesOracle) {
  const SweepParam& p = GetParam();
  SystemConfig config;
  config.kind = SystemKind::kDema;
  config.num_locals = p.locals;
  config.gamma = p.gamma;
  config.quantiles = {p.quantile};

  gen::DistributionParams dist;
  dist.kind = p.dist;
  dist.lo = 0;
  dist.hi = 1000;
  dist.mean = 500;
  dist.stddev = p.dist == gen::DistributionKind::kSensorWalk ? 5 : 150;
  dist.lambda = 0.01;
  WorkloadConfig load =
      sim::MakeUniformWorkload(p.locals, /*windows=*/4, /*event_rate=*/3000,
                               dist, p.scale_rates);
  auto run = RunWithOracle(config, load);
  ExpectExact(run, 4, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DemaExactnessSweep,
    ::testing::Values(
        SweepParam{gen::DistributionKind::kUniform, 2, 50, 0.5, {}, "uniform"},
        SweepParam{gen::DistributionKind::kNormal, 2, 50, 0.5, {}, "normal"},
        SweepParam{gen::DistributionKind::kExponential, 2, 50, 0.5, {}, "exp"},
        SweepParam{gen::DistributionKind::kZipf, 2, 50, 0.5, {}, "zipf"},
        SweepParam{gen::DistributionKind::kSensorWalk, 2, 50, 0.5, {}, "walk"}),
    [](const auto& info) { return info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    GammaAndTopology, DemaExactnessSweep,
    ::testing::Values(
        SweepParam{gen::DistributionKind::kUniform, 2, 2, 0.5, {}, "gamma2"},
        SweepParam{gen::DistributionKind::kUniform, 2, 3, 0.5, {}, "gamma3"},
        SweepParam{gen::DistributionKind::kUniform, 2, 100000, 0.5, {}, "gammaHuge"},
        SweepParam{gen::DistributionKind::kUniform, 1, 64, 0.5, {}, "oneLocal"},
        SweepParam{gen::DistributionKind::kUniform, 7, 64, 0.5, {}, "sevenLocals"},
        SweepParam{gen::DistributionKind::kNormal, 5, 17, 0.5, {}, "oddGamma"}),
    [](const auto& info) { return info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    Quantiles, DemaExactnessSweep,
    ::testing::Values(
        SweepParam{gen::DistributionKind::kUniform, 3, 64, 0.01, {}, "q01"},
        SweepParam{gen::DistributionKind::kUniform, 3, 64, 0.25, {}, "q25"},
        SweepParam{gen::DistributionKind::kUniform, 3, 64, 0.30, {}, "q30"},
        SweepParam{gen::DistributionKind::kUniform, 3, 64, 0.75, {}, "q75"},
        SweepParam{gen::DistributionKind::kUniform, 3, 64, 0.99, {}, "q99"},
        SweepParam{gen::DistributionKind::kUniform, 3, 64, 1.0, {}, "q100"}),
    [](const auto& info) { return info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    ScaleRates, DemaExactnessSweep,
    ::testing::Values(
        SweepParam{
            gen::DistributionKind::kSensorWalk, 2, 64, 0.3, {1, 2}, "skew2"},
        SweepParam{
            gen::DistributionKind::kSensorWalk, 2, 64, 0.3, {1, 10}, "skew10"},
        SweepParam{gen::DistributionKind::kUniform, 4, 64, 0.5,
                   {1, 1, 5, 5}, "twoClusters"},
        SweepParam{gen::DistributionKind::kUniform, 3, 64, 0.5,
                   {1, 100, 10000}, "disjointRanges"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace dema
