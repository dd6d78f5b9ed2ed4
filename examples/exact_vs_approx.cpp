// Exact vs approximate: when does Dema beat a t-digest, and what does the
// approximation actually cost?
//
// Runs the same heavy-tailed workload (zipf-distributed transaction sizes)
// through Dema (exact) and the t-digest pipeline (approximate), then compares
// per-window p99 values against a full-sort oracle. Heavy tails are where
// approximate sketches earn their keep on speed and where their error
// concentrates in absolute terms — and where a billing system, for example,
// cannot tolerate being wrong.
//
// Build & run:  cmake --build build && ./build/examples/exact_vs_approx

#include <cmath>
#include <iostream>

#include "common/clock.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/driver.h"
#include "sim/topology.h"
#include "stream/quantile.h"

using namespace dema;

namespace {

struct RunOutput {
  std::vector<sim::WindowOutput> outputs;
  std::vector<std::vector<Event>> events;  // per window (recorded once)
  double root_busy_s = 0;
  double local_busy_s = 0;
};

RunOutput Run(sim::SystemKind kind, const sim::WorkloadConfig& load,
              bool record) {
  sim::SystemConfig config;
  config.kind = kind;
  config.num_locals = load.generators.size();
  config.quantiles = {0.99};
  config.gamma = 1'000;
  config.tdigest_compression = 100;

  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  if (!system_result.ok()) {
    std::cerr << "setup failed: " << system_result.status() << "\n";
    std::exit(1);
  }
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::SyncDriver driver(&system, &network);
  driver.set_record_events(record);
  sim::WorkloadConfig workload = load;
  workload.window_len_us = config.window_len_us;
  Status st = driver.Run(workload);
  if (!st.ok()) {
    std::cerr << "run failed: " << st << "\n";
    std::exit(1);
  }
  RunOutput out;
  out.outputs = driver.outputs();
  out.events = driver.recorded_events();
  out.root_busy_s = driver.root_busy_seconds();
  out.local_busy_s = driver.max_local_busy_seconds();
  return out;
}

}  // namespace

int main() {
  gen::DistributionParams zipf;
  zipf.kind = gen::DistributionKind::kZipf;
  zipf.lo = 1;        // 1 cent
  zipf.hi = 100'000;  // 1000 dollar tail
  zipf.zipf_s = 1.3;
  sim::WorkloadConfig load =
      sim::MakeUniformWorkload(3, /*num_windows=*/6, /*event_rate=*/40'000, zipf);

  RunOutput dema_run = Run(sim::SystemKind::kDema, load, /*record=*/true);
  RunOutput sketch_run = Run(sim::SystemKind::kTDigestCentral, load, false);

  Table table({"window", "oracle p99", "Dema p99", "Tdigest p99",
               "Tdigest error"});
  MpeAccumulator dema_mpe, sketch_mpe;
  for (size_t w = 0; w < dema_run.outputs.size(); ++w) {
    std::vector<double> values;
    for (const Event& e : dema_run.events[w]) values.push_back(e.value);
    auto oracle = stream::ExactQuantileValues(values, 0.99);
    if (!oracle.ok()) continue;
    double exact = *oracle;
    double dema_v = dema_run.outputs[w].values[0];
    double sketch_v = sketch_run.outputs[w].values[0];
    dema_mpe.Add(exact, dema_v);
    sketch_mpe.Add(exact, sketch_v);
    (void)table.AddRow({std::to_string(w), FmtF(exact, 1), FmtF(dema_v, 1),
                        FmtF(sketch_v, 1),
                        FmtF(100.0 * std::abs(sketch_v - exact) /
                                 std::max(1.0, exact),
                             3) + "%"});
  }
  table.Print(std::cout);

  std::cout << "\nAccuracy (1 - MPE): Dema " << FmtF(dema_mpe.Accuracy() * 100, 4)
            << "%  |  Tdigest " << FmtF(sketch_mpe.Accuracy() * 100, 4) << "%\n";
  std::cout << "Busy time   (root): Dema " << FmtF(dema_run.root_busy_s, 3)
            << "s  |  Tdigest " << FmtF(sketch_run.root_busy_s, 3) << "s\n";
  std::cout << "Busy time  (local): Dema " << FmtF(dema_run.local_busy_s, 3)
            << "s  |  Tdigest " << FmtF(sketch_run.local_busy_s, 3) << "s\n";
  std::cout << "\nTakeaway: the sketch is fast and close — but only Dema "
               "returns the exact order statistic, at a comparable cost.\n";
  return 0;
}
