// Extension: hierarchical aggregation through Dema relays. Relays re-index
// child synopses into one combined batch upward and split candidate requests
// downward, so Dema's protocol composes through arbitrary tree depths. This
// harness compares a flat 1-root/N-local topology against root -> R relays
// -> N locals: root fan-in (messages at the root) drops by ~N/R while
// results stay exact and event traffic stays the same order.

#include "harness.h"

#include "sim/tree.h"

using namespace dema;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 4));
  const double rate = flags.GetDouble("rate", 20'000);
  const uint64_t gamma = static_cast<uint64_t>(flags.GetInt("gamma", 1'000));
  const size_t relays = static_cast<size_t>(flags.GetInt("relays", 3));
  const size_t per_relay = static_cast<size_t>(flags.GetInt("per_relay", 4));
  const size_t leaves = relays * per_relay;

  std::cout << "=== Extension: hierarchical Dema (" << relays << " relays x "
            << per_relay << " locals vs flat " << leaves << " locals) ===\n";

  Table table({"topology", "root msgs in", "root bytes in", "total wire bytes",
               "median (win 0)"});

  // Flat topology.
  {
    RealClock clock;
    net::Network network(&clock);
    sim::SystemConfig config;
    config.kind = sim::SystemKind::kDema;
    config.num_locals = leaves;
    config.gamma = gamma;
    auto system =
        bench::Unwrap(sim::BuildSystem(config, &network, &clock), "build");
    sim::WorkloadConfig load = sim::MakeUniformWorkload(
        leaves, windows, rate, bench::SensorDistribution());
    load.window_len_us = config.window_len_us;
    sim::SyncDriver driver(&system, &network);
    bench::UnwrapStatus(driver.Run(load), "flat run");

    uint64_t root_msgs = 0, root_bytes = 0;
    for (NodeId local : system.local_ids) {
      auto stats = network.GetLinkStats(local, system.root_id);
      root_msgs += stats.counters.messages;
      root_bytes += stats.counters.bytes;
    }
    bench::UnwrapStatus(
        table.AddRow({"flat", FmtCount(root_msgs), FmtBytes(root_bytes),
                      FmtBytes(network.TotalStats().counters.bytes),
                      FmtF(driver.outputs().front().values[0], 2)}),
        "table row");
  }

  // Tree topology with the same leaves and workload.
  {
    RealClock clock;
    net::Network network(&clock);
    sim::TreeConfig config;
    config.num_relays = relays;
    config.locals_per_relay = per_relay;
    config.gamma = gamma;
    auto tree = bench::Unwrap(sim::BuildTreeSystem(config, &network, &clock),
                              "tree build");
    sim::WorkloadConfig load = sim::MakeUniformWorkload(
        leaves, windows, rate, bench::SensorDistribution());
    load.window_len_us = config.window_len_us;
    for (size_t i = 0; i < leaves; ++i) {
      load.generators[i].node = tree.local_ids[i];
    }
    sim::SyncDriver driver(&tree, &network);
    bench::UnwrapStatus(driver.Run(load), "tree run");

    uint64_t root_msgs = 0, root_bytes = 0;
    for (NodeId relay : tree.relay_ids) {
      auto stats = network.GetLinkStats(relay, tree.root_id);
      root_msgs += stats.counters.messages;
      root_bytes += stats.counters.bytes;
    }
    bench::UnwrapStatus(
        table.AddRow({std::to_string(relays) + " relays", FmtCount(root_msgs),
                      FmtBytes(root_bytes),
                      FmtBytes(network.TotalStats().counters.bytes),
                      FmtF(driver.outputs().front().values[0], 2)}),
        "table row");
  }
  bench::EmitTable(table, flags);
  return 0;
}
