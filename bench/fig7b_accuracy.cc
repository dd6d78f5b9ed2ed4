// Figure 7b: accuracy of Dema and Tdigest with Scotty as ground truth, on
// identical per-window inputs (same generator seeds). Accuracy = 1 - MPE
// where MPE is the mean percentage error over windows (Section 4.5).
//
// Expected shape (paper): Dema exactly 100%; Tdigest close to but below 100%.

#include "harness.h"

#include "common/stats.h"

using namespace dema;

namespace {

std::vector<std::vector<double>> RunMedians(sim::SystemKind kind, size_t locals,
                                            const sim::WorkloadConfig& load,
                                            double compression) {
  sim::SystemConfig config;
  config.kind = kind;
  config.num_locals = locals;
  config.gamma = 10'000;
  config.tdigest_compression = compression;
  config.qdigest_lo = 0;
  config.qdigest_hi = 10'000;  // the sensor distribution's domain
  config.qdigest_bits = 20;
  config.qdigest_k = 2048;

  RealClock clock;
  net::Network network(&clock);
  auto system =
      bench::Unwrap(sim::BuildSystem(config, &network, &clock), "build");
  sim::WorkloadConfig workload = load;
  workload.window_len_us = config.window_len_us;
  sim::SyncDriver driver(&system, &network);
  bench::UnwrapStatus(driver.Run(workload), "sync run");

  std::vector<std::vector<double>> per_window(workload.num_windows);
  for (const auto& out : driver.outputs()) {
    per_window[out.window_id] = out.values;
  }
  return per_window;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t locals = static_cast<size_t>(flags.GetInt("locals", 2));
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 12));
  const double rate = flags.GetDouble("rate", 100'000);
  const double compression = flags.GetDouble("compression", 100);

  std::cout << "=== Figure 7b: accuracy vs Scotty ground truth (" << windows
            << " windows x " << FmtRate(rate) << " per node) ===\n";

  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      locals, windows, rate, bench::SensorDistribution());

  auto truth = RunMedians(sim::SystemKind::kCentralExact, locals, load, compression);
  struct Candidate {
    const char* name;
    sim::SystemKind kind;
  };
  Table table({"system", "windows", "MPE", "accuracy"});
  bench::UnwrapStatus(table.AddRow({"Scotty (truth)", std::to_string(windows),
                                    "0.000000", "100.0000%"}),
                      "table row");
  for (Candidate c : {Candidate{"Dema", sim::SystemKind::kDema},
                      Candidate{"Tdigest", sim::SystemKind::kTDigestCentral},
                      Candidate{"Tdigest-dec", sim::SystemKind::kTDigestDecentral},
                      Candidate{"Qdigest", sim::SystemKind::kQDigest}}) {
    auto result = RunMedians(c.kind, locals, load, compression);
    MpeAccumulator mpe;
    for (uint64_t w = 0; w < windows; ++w) {
      mpe.Add(truth[w][0], result[w][0]);
    }
    bench::UnwrapStatus(
        table.AddRow({c.name, std::to_string(windows), FmtF(mpe.Mpe(), 6),
                      FmtF(mpe.Accuracy() * 100.0, 4) + "%"}),
        "table row");
  }
  bench::EmitTable(table, flags);
  return 0;
}
