// Quiescence-pump tests: tree and tiered systems run through the flat
// driver's window loop and delivery loop, so a fabric that holds messages
// back (delayed inline delivery or event-driven hops) still completes every
// window, oracle-exact; and the pump delivers what a node's Quiesce sends.

#include <gtest/gtest.h>

#include <string>

#include "common/clock.h"
#include "sim/pump.h"
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
  auto run = [&](System* system, const WorkloadConfig& load) {
    fed = FedValues(load.generators);
    SyncDriver driver(system, &network);
    Status st = driver.Run(load);
    EXPECT_TRUE(st.ok()) << st;
    outputs = driver.outputs();
  };

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
    run(&*tree, load);
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
    run(&*tiered, TieredWorkload(config, kWindows));
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

TEST(PumpToQuiescence, DeliversWhatQuiesceSendsToAnEarlierNode) {
  // The sharded root's strands send from Quiesce, possibly to a node whose
  // inbox was drained earlier in the same round; the pump must not stop
  // there.
  struct Counter final : NodeLogic {
    int received = 0;
    Status OnMessage(const net::Message&) override {
      ++received;
      return Status::OK();
    }
  };
  struct LateSender final : NodeLogic {
    net::Network* network = nullptr;
    bool sent = false;
    Status OnMessage(const net::Message&) override { return Status::OK(); }
    Status Quiesce() override {
      if (sent) return Status::OK();
      sent = true;
      net::TimeAdvance advance;
      return network->Send(
          net::MakeMessage(net::MessageType::kTimeAdvance, 1, 0, advance));
    }
  };
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  Counter first;
  LateSender second;
  second.network = &network;
  ASSERT_TRUE(PumpToQuiescence(&network, {{0, &first}, {1, &second}}).ok());
  EXPECT_TRUE(second.sent);
  EXPECT_EQ(first.received, 1);
  EXPECT_EQ(network.Inbox(0)->size(), 0u);
}

}  // namespace
}  // namespace dema::sim
