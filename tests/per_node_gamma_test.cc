// Tests for the per-node adaptive gamma extension (the paper's Section 3.3
// future work): heterogeneous nodes converge to different slice factors,
// results stay exact, and the per-node cost beats the global compromise.

#include <gtest/gtest.h>

#include "common/clock.h"
#include "dema/adaptive_gamma.h"
#include "dema/root_node.h"
#include "sim/driver.h"
#include "sim/topology.h"
#include "stream/quantile.h"

namespace dema {
namespace {

struct HeteroRun {
  std::vector<sim::WindowOutput> outputs;
  std::vector<std::vector<Event>> recorded;
  uint64_t gamma_small = 0;  // final gamma at the low-rate node
  uint64_t gamma_big = 0;    // final gamma at the high-rate node
  uint64_t candidate_events = 0;
  uint64_t synopsis_slices = 0;
};

/// Two locals with a 50x rate gap.
HeteroRun RunHetero(bool per_node, uint64_t windows) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 1'000;
  config.adaptive_gamma = true;
  config.per_node_gamma = per_node;

  sim::WorkloadConfig load;
  load.num_windows = windows;
  load.window_len_us = config.window_len_us;
  for (size_t i = 0; i < 2; ++i) {
    gen::GeneratorConfig cfg;
    cfg.node = static_cast<NodeId>(i + 1);
    cfg.seed = 500 + i;
    cfg.distribution.kind = gen::DistributionKind::kUniform;
    cfg.distribution.lo = 0;
    cfg.distribution.hi = 1000;
    cfg.event_rate = i == 0 ? 2'000 : 100'000;  // 50x heterogeneity
    load.generators.push_back(cfg);
  }

  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  EXPECT_TRUE(system_result.ok()) << system_result.status();
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::SyncDriver driver(&system, &network);
  driver.set_record_events(true);
  Status st = driver.Run(load);
  EXPECT_TRUE(st.ok()) << st;

  auto* root = static_cast<core::DemaRootNode*>(system.root.get());
  HeteroRun run;
  run.outputs = driver.outputs();
  run.recorded = driver.recorded_events();
  run.gamma_small = root->current_gamma_for(1);
  run.gamma_big = root->current_gamma_for(2);
  run.candidate_events =
      root->registry()->CounterValue("dema.candidate_events");
  run.synopsis_slices = root->registry()->CounterValue("dema.synopsis_slices");
  return run;
}

TEST(PerNodeGamma, NodesConvergeToDifferentFactors) {
  HeteroRun run = RunHetero(/*per_node=*/true, /*windows=*/12);
  // gamma* grows with sqrt(l_i): the 50x-rate node should settle well above
  // the low-rate node.
  EXPECT_GT(run.gamma_big, run.gamma_small * 3)
      << "small=" << run.gamma_small << " big=" << run.gamma_big;
}

TEST(PerNodeGamma, GlobalModeKeepsOneFactor) {
  HeteroRun run = RunHetero(/*per_node=*/false, /*windows=*/12);
  EXPECT_EQ(run.gamma_small, run.gamma_big);
}

TEST(PerNodeGamma, ResultsStayExact) {
  HeteroRun run = RunHetero(/*per_node=*/true, /*windows=*/8);
  ASSERT_EQ(run.outputs.size(), 8u);
  for (const auto& out : run.outputs) {
    std::vector<double> values;
    for (const Event& e : run.recorded[out.window_id]) values.push_back(e.value);
    auto oracle = stream::ExactQuantileValues(values, 0.5);
    ASSERT_TRUE(oracle.ok());
    EXPECT_DOUBLE_EQ(out.values[0], *oracle) << "window " << out.window_id;
  }
}

TEST(PerNodeGamma, BeatsGlobalCompromiseOnModelCost) {
  HeteroRun per_node = RunHetero(/*per_node=*/true, /*windows=*/16);
  HeteroRun global = RunHetero(/*per_node=*/false, /*windows=*/16);
  uint64_t per_node_cost = 2 * per_node.synopsis_slices + per_node.candidate_events;
  uint64_t global_cost = 2 * global.synopsis_slices + global.candidate_events;
  // Under 50x rate heterogeneity the per-node factors should not lose to the
  // single global factor on the paper's cost metric (allow 5% slack for
  // adaptation transients on a short run).
  EXPECT_LT(per_node_cost, global_cost + global_cost / 20)
      << "per-node=" << per_node_cost << " global=" << global_cost;
}

TEST(PerNodeGamma, CurrentGammaForUnknownNodeFallsBack) {
  RealClock clock;
  net::Network network(&clock);
  core::DemaRootNodeOptions opts;
  opts.locals = {1, 2};
  opts.initial_gamma = 777;
  opts.adaptive_gamma = true;
  opts.per_node_gamma = true;
  ASSERT_TRUE(network.RegisterNode(0).ok());
  core::DemaRootNode root(opts, &network, &clock);
  EXPECT_EQ(root.current_gamma_for(99), 777u);  // unknown node -> global
  EXPECT_EQ(root.current_gamma_for(1), 777u);   // before any observation
}

}  // namespace
}  // namespace dema
