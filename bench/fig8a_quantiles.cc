// Figure 8a: Dema throughput for the 25%, 50% (median), and 75% quantile
// functions on a 3-node cluster with similar data distributions per node.
//
// Expected shape (paper): throughput is essentially flat across quantile
// choices — the identification step dominates and is rank-agnostic.

#include "harness.h"

using namespace dema;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t locals = static_cast<size_t>(flags.GetInt("locals", 2));
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 8));
  const double rate = flags.GetDouble("rate", 300'000);
  const uint64_t gamma = static_cast<uint64_t>(flags.GetInt("gamma", 10'000));

  std::cout << "=== Figure 8a: Dema throughput per quantile function (gamma="
            << gamma << ") ===\n";

  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      locals, windows, rate, bench::SensorDistribution());

  Table table({"quantile", "throughput", "events/s", "candidate events"});
  for (double q : {0.25, 0.5, 0.75}) {
    sim::SystemConfig config;
    config.kind = sim::SystemKind::kDema;
    config.num_locals = locals;
    config.gamma = gamma;
    config.quantiles = {q};
    auto metrics = bench::Unwrap(sim::RunSync(config, load), "sync run");
    bench::UnwrapStatus(
        table.AddRow({FmtF(q * 100, 0) + "%",
                      FmtRate(metrics.sim_throughput_eps),
                      FmtF(metrics.sim_throughput_eps, 0),
                      FmtCount(metrics.registry->CounterValue(
                          "dema.candidate_events"))}),
        "table row");
  }
  bench::EmitTable(table, flags);
  return 0;
}
