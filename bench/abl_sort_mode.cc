// Ablation: local-window ordering strategy. The paper's implementation sorts
// incrementally as events arrive; this repo's locals buffer a window
// unsorted and slice-order it when it closes (`stream::OrderSlices`: exact
// slice sets and endpoints), sorting a slice only when the root asks for its
// events. The choice moves Dema's local-node bottleneck — and explains why
// our Fig. 5a shows Dema ~tied with Tdigest where the paper shows Tdigest
// ahead (see EXPERIMENTS.md).

#include "harness.h"

using namespace dema;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t locals = static_cast<size_t>(flags.GetInt("locals", 2));
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 6));
  const double rate = flags.GetDouble("rate", 150'000);
  const uint64_t gamma = static_cast<uint64_t>(flags.GetInt("gamma", 10'000));

  std::cout << "=== Ablation: Dema local ordering strategy (gamma=" << gamma
            << ", " << windows << " windows x " << FmtRate(rate)
            << " per node) ===\n";

  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      locals, windows, rate, bench::SensorDistribution());

  Table table({"sort mode", "throughput", "events/s", "local busy s",
               "root busy s"});
  struct Mode {
    const char* name;
    stream::SortMode mode;
  };
  for (Mode m : {Mode{"slice order on close (ours)",
                      stream::SortMode::kSortOnClose},
                 Mode{"incremental (paper)", stream::SortMode::kIncremental}}) {
    sim::SystemConfig config;
    config.kind = sim::SystemKind::kDema;
    config.num_locals = locals;
    config.gamma = gamma;
    config.sort_mode = m.mode;
    auto metrics = bench::Unwrap(sim::RunSync(config, load), "sync run");
    bench::UnwrapStatus(
        table.AddRow({m.name, FmtRate(metrics.sim_throughput_eps),
                      FmtF(metrics.sim_throughput_eps, 0),
                      FmtF(metrics.max_local_busy_seconds, 3),
                      FmtF(metrics.root_busy_seconds, 3)}),
        "table row");
  }
  bench::EmitTable(table, flags);
  return 0;
}
