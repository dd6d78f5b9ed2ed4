// Figure 8b: Dema throughput across gamma values for three scale-rate
// configurations — Dema #1 (scale rates 1,1), Dema #2 (1,2), and Dema #10
// (1,10) — computing the 30% quantile (the result sits on the denser side).
//
// Expected shape (paper): ∩-shaped curves — tiny gamma ships everything as
// synopses and re-processes it, huge gamma ships huge candidate slices; the
// instances order Dema #1 >= #2 >= #10 with small gaps thanks to window-cut.

#include "harness.h"

using namespace dema;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 4));
  const double rate = flags.GetDouble("rate", 100'000);

  std::cout << "=== Figure 8b: Dema throughput vs gamma (30% quantile) ===\n";

  struct Instance {
    const char* name;
    std::vector<double> scale_rates;
  };
  const Instance instances[] = {{"Dema #1", {1, 1}},
                                {"Dema #2", {1, 2}},
                                {"Dema #10", {1, 10}}};
  std::vector<uint64_t> gammas = {2, 10, 100, 1'000, 10'000, 100'000};
  if (flags.Has("gamma")) {
    gammas = {static_cast<uint64_t>(flags.GetInt("gamma", 10'000))};
  }

  Table table({"gamma", "instance", "throughput", "events/s",
               "candidate events", "wire events"});
  for (uint64_t gamma : gammas) {
    for (const Instance& inst : instances) {
      sim::WorkloadConfig load = sim::MakeUniformWorkload(
          2, windows, rate, bench::SensorDistribution(), inst.scale_rates);
      sim::SystemConfig config;
      config.kind = sim::SystemKind::kDema;
      config.num_locals = 2;
      config.gamma = gamma;
      config.quantiles = {0.30};
      auto metrics = bench::Unwrap(sim::RunSync(config, load), "sync run");
      bench::UnwrapStatus(
          table.AddRow({std::to_string(gamma), inst.name,
                        FmtRate(metrics.sim_throughput_eps),
                        FmtF(metrics.sim_throughput_eps, 0),
                        FmtCount(metrics.registry->CounterValue(
                            "dema.candidate_events")),
                        FmtCount(metrics.network_total.events)}),
          "table row");
    }
  }
  bench::EmitTable(table, flags);
  return 0;
}
