// Ablation: the window-cut algorithm vs naive transitive-overlap candidate
// selection (Section 3.2). Both are exact; the question is how many
// candidate events cross the network when local value ranges overlap.
//
// Expected: with identical scale rates (full overlap) naive selection ships
// nearly the whole window while window-cut ships ~gamma-sized candidates.

#include "harness.h"

using namespace dema;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 4));
  const double rate = flags.GetDouble("rate", 50'000);
  const uint64_t gamma = static_cast<uint64_t>(flags.GetInt("gamma", 1'000));

  std::cout << "=== Ablation: window-cut vs naive overlap selection (gamma="
            << gamma << ") ===\n";

  struct Overlap {
    const char* name;
    std::vector<double> scale_rates;
  };
  const Overlap overlaps[] = {{"full overlap (1,1,1,1)", {1, 1, 1, 1}},
                              {"partial overlap (1,1.1,1.2,1.3)", {1, 1.1, 1.2, 1.3}},
                              {"disjoint (1,100,10000,1000000)",
                               {1, 100, 10'000, 1'000'000}}};

  Table table({"distribution", "selector", "candidate events", "wire events",
               "wire bytes", "cand. slices"});
  for (const Overlap& overlap : overlaps) {
    sim::WorkloadConfig load = sim::MakeUniformWorkload(
        4, windows, rate, bench::SensorDistribution(), overlap.scale_rates);
    for (bool naive : {false, true}) {
      sim::SystemConfig config;
      config.kind = sim::SystemKind::kDema;
      config.num_locals = 4;
      config.gamma = gamma;
      config.naive_selection = naive;
      config.quantiles = {0.5};
      auto metrics = bench::Unwrap(sim::RunSync(config, load), "sync run");
      const obs::Registry& registry = *metrics.registry;
      bench::UnwrapStatus(
          table.AddRow(
              {overlap.name, naive ? "naive" : "window-cut",
               FmtCount(registry.CounterValue("dema.candidate_events")),
               FmtCount(metrics.network_total.events),
               FmtBytes(metrics.network_total.bytes),
               FmtCount(registry.CounterValue("dema.candidate_slices"))}),
          "table row");
    }
  }
  bench::EmitTable(table, flags);
  return 0;
}
