// Smart-city scenario: a fleet of air-quality gateways (one per district)
// streams particulate readings; the control center wants a per-second
// dashboard of p25 / median / p75 / p99 — exact values, because regulatory
// thresholds are hard cut-offs, not estimates.
//
// Districts differ wildly: the industrial zone produces 4x the events with
// 3x the baseline pollution of the park district. Dema answers all four
// quantiles from one identification step per window while shipping a tiny
// fraction of the raw readings to the center.
//
// Build & run:  cmake --build build && ./build/examples/iot_fleet

#include <iostream>

#include "common/clock.h"
#include "common/table.h"
#include "sim/driver.h"
#include "sim/topology.h"

using namespace dema;

namespace {

struct District {
  const char* name;
  double event_rate;   // readings per second
  double scale_rate;   // pollution baseline multiplier
};

}  // namespace

int main() {
  const District districts[] = {
      {"park", 20'000, 1.0},        {"residential-n", 40'000, 1.4},
      {"residential-s", 35'000, 1.5}, {"downtown", 60'000, 2.1},
      {"harbor", 45'000, 2.6},      {"industrial", 80'000, 3.0},
  };
  const size_t kDistricts = std::size(districts);
  const uint64_t kWindows = 6;

  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = kDistricts;
  config.window_len_us = kMicrosPerSecond;
  config.quantiles = {0.25, 0.5, 0.75, 0.99};
  config.gamma = 2'000;
  config.adaptive_gamma = true;  // let the root tune the slice factor

  // Per-district generators: different rates and pollution baselines.
  sim::WorkloadConfig load;
  load.num_windows = kWindows;
  for (size_t i = 0; i < kDistricts; ++i) {
    gen::GeneratorConfig gcfg;
    gcfg.node = static_cast<NodeId>(i + 1);
    gcfg.seed = 42 + i;
    gcfg.distribution.kind = gen::DistributionKind::kSensorWalk;
    gcfg.distribution.lo = 5;     // ug/m3 floor
    gcfg.distribution.hi = 400;   // sensor saturation
    gcfg.distribution.stddev = 2;
    gcfg.distribution.kick_prob = 0.002;  // traffic bursts
    gcfg.event_rate = districts[i].event_rate;
    gcfg.scale_rate = districts[i].scale_rate;
    load.generators.push_back(gcfg);
  }
  load.window_len_us = config.window_len_us;

  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  if (!system_result.ok()) {
    std::cerr << "setup failed: " << system_result.status() << "\n";
    return 1;
  }
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::SyncDriver driver(&system, &network);
  Status st = driver.Run(load);
  if (!st.ok()) {
    std::cerr << "run failed: " << st << "\n";
    return 1;
  }

  std::cout << "Air-quality dashboard (" << kDistricts << " districts, "
            << "exact quantiles per 1s window):\n";
  Table table({"second", "readings", "p25", "median", "p75", "p99 (alert>500)"});
  for (const sim::WindowOutput& out : driver.outputs()) {
    std::string p99 = FmtF(out.values[3], 1);
    if (out.values[3] > 500) p99 += "  ** ALERT **";
    (void)table.AddRow({std::to_string(out.window_id), FmtCount(out.global_size),
                        FmtF(out.values[0], 1), FmtF(out.values[1], 1),
                        FmtF(out.values[2], 1), p99});
  }
  table.Print(std::cout);

  auto total = network.TotalStats();
  double pct = 100.0 * static_cast<double>(total.counters.events) /
               static_cast<double>(driver.events_ingested());
  std::cout << "Raw readings shipped to the control center: "
            << FmtCount(total.counters.events) << " of "
            << FmtCount(driver.events_ingested()) << " (" << FmtF(pct, 2)
            << "%) — the rest stayed at the gateways.\n";
  return 0;
}
