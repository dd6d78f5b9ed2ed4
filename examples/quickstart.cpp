// Quickstart: compute exact per-window medians over a decentralized topology
// in ~40 lines of library code.
//
//   1. Describe the topology (1 root + N locals) with sim::SystemConfig.
//   2. Describe each node's event stream with gen::GeneratorConfig
//      (sim::MakeUniformWorkload builds a homogeneous fleet).
//   3. Run the pipeline and read the per-window results.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <iostream>

#include "common/clock.h"
#include "common/table.h"
#include "sim/driver.h"
#include "sim/topology.h"

using namespace dema;

int main() {
  // -- 1. topology: Dema with 3 edge nodes, 1 s tumbling windows, median ----
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 3;
  config.window_len_us = kMicrosPerSecond;
  config.quantiles = {0.5};
  config.gamma = 1'000;  // slice factor; see adaptive_gamma example

  // -- 2. workload: each node emits 50k DEBS-like sensor events per second --
  gen::DistributionParams sensor;
  sensor.kind = gen::DistributionKind::kSensorWalk;
  sensor.lo = 0;
  sensor.hi = 10'000;
  sensor.stddev = 25;
  sim::WorkloadConfig load =
      sim::MakeUniformWorkload(config.num_locals, /*num_windows=*/5,
                               /*event_rate=*/50'000, sensor);

  // -- 3. wire everything and run ------------------------------------------
  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  if (!system_result.ok()) {
    std::cerr << "setup failed: " << system_result.status() << "\n";
    return 1;
  }
  sim::System system = std::move(system_result).MoveValueUnsafe();

  sim::SyncDriver driver(&system, &network);
  sim::WorkloadConfig workload = load;
  workload.window_len_us = config.window_len_us;
  Status st = driver.Run(workload);
  if (!st.ok()) {
    std::cerr << "run failed: " << st << "\n";
    return 1;
  }

  // -- results ---------------------------------------------------------------
  Table table({"window", "events", "median", "latency ms"});
  for (const sim::WindowOutput& out : driver.outputs()) {
    (void)table.AddRow({std::to_string(out.window_id),
                        FmtCount(out.global_size), FmtF(out.values[0], 2),
                        FmtF(ToMillis(out.latency_us), 2)});
  }
  table.Print(std::cout);

  auto total = network.TotalStats();
  std::cout << "network: " << FmtCount(total.counters.events)
            << " raw events on the wire out of "
            << FmtCount(driver.events_ingested()) << " ingested ("
            << FmtF(100.0 * static_cast<double>(total.counters.events) /
                        static_cast<double>(driver.events_ingested()),
                    2)
            << "%), " << FmtBytes(total.counters.bytes) << " total\n";
  return 0;
}
