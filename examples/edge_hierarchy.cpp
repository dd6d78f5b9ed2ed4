// Campus-scale hierarchy: a facilities operator runs power-quality monitoring
// across 3 buildings, each with 4 floor gateways. The floor gateways are
// Dema local nodes; each building's switch runs a Dema relay; the campus
// server is the root. One exact median per second for the whole campus, with
// the campus uplink carrying only per-building summaries.
//
// Build & run:  cmake --build build && ./build/examples/edge_hierarchy

#include <iostream>

#include "common/clock.h"
#include "common/table.h"
#include "sim/tree.h"

using namespace dema;

int main() {
  const size_t kBuildings = 3;
  const size_t kFloorsPerBuilding = 4;
  const uint64_t kWindows = 5;

  sim::TreeConfig config;
  config.num_relays = kBuildings;
  config.locals_per_relay = kFloorsPerBuilding;
  config.gamma = 100;
  config.quantiles = {0.5, 0.95};

  RealClock clock;
  net::Network network(&clock);
  auto tree_result = sim::BuildTreeSystem(config, &network, &clock);
  if (!tree_result.ok()) {
    std::cerr << "setup failed: " << tree_result.status() << "\n";
    return 1;
  }
  sim::System tree = std::move(tree_result).MoveValueUnsafe();

  // Voltage readings: ~230 V nominal with per-floor load variation.
  sim::WorkloadConfig load;
  load.num_windows = kWindows;
  load.window_len_us = config.window_len_us;
  for (size_t i = 0; i < kBuildings * kFloorsPerBuilding; ++i) {
    gen::GeneratorConfig gcfg;
    gcfg.node = tree.local_ids[i];
    gcfg.seed = 900 + i;
    gcfg.distribution.kind = gen::DistributionKind::kNormal;
    gcfg.distribution.mean = 228 + static_cast<double>(i % kFloorsPerBuilding);
    gcfg.distribution.stddev = 2.5;
    gcfg.event_rate = 10'000;  // one smart meter sample per 100us per floor
    load.generators.push_back(gcfg);
  }

  sim::SyncDriver driver(&tree, &network);
  Status st = driver.Run(load);
  if (!st.ok()) {
    std::cerr << "run failed: " << st << "\n";
    return 1;
  }

  std::cout << "Campus power quality (" << kBuildings << " buildings x "
            << kFloorsPerBuilding << " floors, exact per-second quantiles):\n";
  Table table({"second", "samples", "median V", "p95 V"});
  for (const sim::WindowOutput& out : driver.outputs()) {
    (void)table.AddRow({std::to_string(out.window_id), FmtCount(out.global_size),
                        FmtF(out.values[0], 2), FmtF(out.values[1], 2)});
  }
  table.Print(std::cout);

  // Show what each tier of the network carried.
  uint64_t uplink_bytes = 0, uplink_msgs = 0;
  for (NodeId relay : tree.relay_ids) {
    auto stats = network.GetLinkStats(relay, tree.root_id);
    uplink_bytes += stats.counters.bytes;
    uplink_msgs += stats.counters.messages;
  }
  uint64_t floor_bytes = 0;
  for (size_t b = 0; b < kBuildings; ++b) {
    for (size_t f = 0; f < kFloorsPerBuilding; ++f) {
      NodeId leaf = tree.local_ids[b * kFloorsPerBuilding + f];
      floor_bytes += network.GetLinkStats(leaf, tree.relay_ids[b]).counters.bytes;
    }
  }
  std::cout << "Floor -> building links: " << FmtBytes(floor_bytes)
            << "; campus uplink: " << FmtBytes(uplink_bytes) << " in "
            << uplink_msgs << " messages for "
            << FmtCount(driver.events_ingested()) << " readings.\n";
  return 0;
}
