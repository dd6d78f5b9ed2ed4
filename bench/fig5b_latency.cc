// Figure 5b: window-result latency of Dema vs Scotty, Desis, and Tdigest.
// Latency = time from the last local-window close to the root emitting the
// final aggregate (network transfer time excluded, as in Section 4.2 —
// message delivery is in-process; the simulated wire time is reported by the
// network-cost experiments instead).
//
// Expected shape (paper): Dema lowest, Desis middle, Scotty highest.

#include "harness.h"

using namespace dema;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t locals = static_cast<size_t>(flags.GetInt("locals", 2));
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 10));
  const double rate = flags.GetDouble("rate", 200'000);
  const uint64_t gamma = static_cast<uint64_t>(flags.GetInt("gamma", 10'000));

  std::cout << "=== Figure 5b: latency (1 root + " << locals
            << " locals, 1s windows, median, gamma=" << gamma << ") ===\n";

  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      locals, windows, rate, bench::SensorDistribution());

  Table table({"system", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms"});
  for (auto kind :
       {sim::SystemKind::kDema, sim::SystemKind::kCentralExact,
        sim::SystemKind::kDesisMerge, sim::SystemKind::kTDigestCentral}) {
    sim::SystemConfig config;
    config.kind = kind;
    config.num_locals = locals;
    config.gamma = gamma;
    auto metrics = bench::Unwrap(sim::RunSync(config, load), "sync run");
    // Figures report the registry histogram (`root.window_latency_us`) — the
    // same instrument `--metrics-out` exports — so the paper numbers and live
    // observability can never disagree.
    const obs::Histogram::Summary lat =
        metrics.registry->HistogramSummary("root.window_latency_us");
    bench::UnwrapStatus(
        table.AddRow({sim::SystemKindToString(kind),
                      FmtF(lat.mean / 1000.0, 2), FmtF(lat.p50 / 1000.0, 2),
                      FmtF(lat.p95 / 1000.0, 2), FmtF(lat.p99 / 1000.0, 2),
                      FmtF(static_cast<double>(lat.max) / 1000.0, 2)}),
        "table row");
  }
  bench::EmitTable(table, flags);
  return 0;
}
