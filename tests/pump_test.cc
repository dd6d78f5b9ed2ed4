// Quiescence-pump tests: the tree and tiered drivers share the flat driver's
// delivery loop, so a fabric that holds messages back (delayed inline
// delivery or event-driven hops) still completes every window, oracle-exact.

#include <gtest/gtest.h>

#include <string>

#include "common/clock.h"
#include "sim/tiered.h"
#include "sim/tree.h"
#include "stream/quantile.h"

namespace dema::sim {
namespace {

constexpr uint64_t kWindows = 3;
constexpr DurationUs kWindowLen = kMicrosPerSecond;
const std::vector<double> kQuantiles = {0.25, 0.5, 0.9};

enum class Topology { kTree, kTiered };
enum class Fabric { kDelayedInline, kEvent };

struct PumpCase {
  Topology topology;
  Fabric fabric;
};

std::string CaseName(const ::testing::TestParamInfo<PumpCase>& info) {
  std::string name =
      info.param.topology == Topology::kTree ? "Tree" : "Tiered";
  return name + (info.param.fabric == Fabric::kEvent ? "_Event" : "_DelayedInline");
}

net::Network::Options FabricOptions(Fabric fabric) {
  net::Network::Options options;
  if (fabric == Fabric::kEvent) {
    options.delivery = net::Network::DeliveryMode::kEvent;
  } else {
    options.delay_us_max = 500;
    options.fault_seed = 7;
  }
  return options;
}

gen::DistributionParams Uniform01k() {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  dist.lo = 0;
  dist.hi = 1000;
  return dist;
}

/// Per-window values of \p generators over kWindows windows.
std::vector<std::vector<double>> FedValues(
    const std::vector<gen::GeneratorConfig>& generators) {
  std::vector<std::vector<double>> fed(kWindows);
  for (const auto& gcfg : generators) {
    auto gen = gen::StreamGenerator::Create(gcfg);
    EXPECT_TRUE(gen.ok()) << gen.status();
    for (uint64_t w = 0; w < kWindows; ++w) {
      for (const Event& e : (*gen)->GenerateWindow(
               static_cast<TimestampUs>(w) * kWindowLen, kWindowLen)) {
        fed[w].push_back(e.value);
      }
    }
  }
  return fed;
}

class HeldBackDelivery : public ::testing::TestWithParam<PumpCase> {};

TEST_P(HeldBackDelivery, EmitsEveryWindowExactly) {
  RealClock clock;
  net::Network network(&clock, FabricOptions(GetParam().fabric));
  std::vector<std::vector<double>> fed;
  std::vector<WindowOutput> outputs;

  if (GetParam().topology == Topology::kTree) {
    TreeConfig config;
    config.num_relays = 2;
    config.locals_per_relay = 2;
    config.gamma = 64;
    config.window_len_us = kWindowLen;
    config.quantiles = kQuantiles;
    auto tree = BuildTreeSystem(config, &network, &clock);
    ASSERT_TRUE(tree.ok()) << tree.status();
    WorkloadConfig load = MakeUniformWorkload(tree->local_ids.size(), kWindows,
                                              2000, Uniform01k());
    load.window_len_us = kWindowLen;
    for (size_t i = 0; i < tree->local_ids.size(); ++i) {
      load.generators[i].node = tree->local_ids[i];
    }
    fed = FedValues(load.generators);
    TreeSyncDriver driver(&*tree, &network);
    Status st = driver.Run(load);
    ASSERT_TRUE(st.ok()) << st;
    outputs = driver.outputs();
  } else {
    TieredConfig config;
    config.system.kind = SystemKind::kDema;
    config.system.num_locals = 2;
    config.system.gamma = 64;
    config.system.window_len_us = kWindowLen;
    config.system.quantiles = kQuantiles;
    config.sensors_per_local = 2;
    MakeTieredWorkload(&config, /*node_event_rate=*/3000, Uniform01k());
    auto tiered = BuildTieredSystem(config, &network, &clock);
    ASSERT_TRUE(tiered.ok()) << tiered.status();
    fed = FedValues(config.sensor_generators);
    TieredSyncDriver driver(&*tiered, &network);
    Status st = driver.Run(kWindows, kWindowLen);
    ASSERT_TRUE(st.ok()) << st;
    outputs = driver.outputs();
  }

  EXPECT_EQ(network.delayed_in_flight(), 0u);
  EXPECT_EQ(network.pending_events(), 0u);
  ASSERT_EQ(outputs.size(), kWindows);
  for (const WindowOutput& out : outputs) {
    ASSERT_LT(out.window_id, kWindows);
    const std::vector<double>& values = fed[out.window_id];
    EXPECT_FALSE(out.degraded) << "window " << out.window_id;
    ASSERT_EQ(out.global_size, values.size()) << "window " << out.window_id;
    ASSERT_EQ(out.values.size(), kQuantiles.size());
    for (size_t qi = 0; qi < kQuantiles.size(); ++qi) {
      auto oracle = stream::ExactQuantileValues(values, kQuantiles[qi]);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      EXPECT_EQ(out.values[qi], *oracle)
          << "window " << out.window_id << " q" << kQuantiles[qi];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreeAndTiered, HeldBackDelivery,
    ::testing::Values(PumpCase{Topology::kTree, Fabric::kDelayedInline},
                      PumpCase{Topology::kTree, Fabric::kEvent},
                      PumpCase{Topology::kTiered, Fabric::kDelayedInline},
                      PumpCase{Topology::kTiered, Fabric::kEvent}),
    CaseName);

}  // namespace
}  // namespace dema::sim
