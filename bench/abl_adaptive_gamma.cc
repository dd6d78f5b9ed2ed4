// Ablation: adaptive gamma (Section 3.3) vs fixed gamma under a drifting
// workload. Event rates swing across phases; the controller should track
// gamma* = sqrt(2 l_G / m) and beat any single fixed gamma on total network
// cost across the whole drift.

#include "harness.h"

#include "common/clock.h"
#include "dema/adaptive_gamma.h"
#include "dema/root_node.h"
#include "sim/pump.h"

using namespace dema;

namespace {

struct DriftResult {
  uint64_t wire_events = 0;
  uint64_t wire_bytes = 0;
  uint64_t final_gamma = 0;
  /// The paper's cost metric: 2 synopsis events per slice + candidate events.
  uint64_t model_cost = 0;
};

/// Drives a Dema topology window-by-window with an event rate that drifts
/// between phases (something MakeUniformWorkload cannot express).
DriftResult RunDrift(bool adaptive, uint64_t fixed_gamma, uint64_t windows,
                     const std::vector<double>& phase_rates) {
  RealClock clock;
  net::Network network(&clock);
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = fixed_gamma;
  config.adaptive_gamma = adaptive;
  auto system =
      bench::Unwrap(sim::BuildSystem(config, &network, &clock), "build");
  system.root->SetResultCallback([](const sim::WindowOutput&) {});

  for (uint64_t w = 0; w < windows; ++w) {
    double rate = phase_rates[(w * phase_rates.size()) / windows];
    TimestampUs start = static_cast<TimestampUs>(w) * config.window_len_us;
    for (size_t i = 0; i < system.locals.size(); ++i) {
      gen::GeneratorConfig gcfg;
      gcfg.node = system.local_ids[i];
      gcfg.seed = 100 + w * 17 + i;
      gcfg.distribution = bench::SensorDistribution();
      gcfg.event_rate = rate;
      gcfg.start_time_us = start;
      auto gen = bench::Unwrap(gen::StreamGenerator::Create(gcfg), "generator");
      for (const Event& e : gen->GenerateWindow(start, config.window_len_us)) {
        bench::UnwrapStatus(system.locals[i]->OnEvent(e), "ingest");
      }
      bench::UnwrapStatus(
          system.locals[i]->OnWatermark(start + config.window_len_us), "watermark");
    }
    bench::UnwrapStatus(
        sim::PumpToQuiescence(&network, sim::SystemPumpNodes(system)), "pump");
  }

  DriftResult result;
  auto total = network.TotalStats();
  result.wire_events = total.counters.events;
  result.wire_bytes = total.counters.bytes;
  auto* root = static_cast<core::DemaRootNode*>(system.root.get());
  result.final_gamma = root->current_gamma();
  const obs::Registry& registry = *root->registry();
  result.model_cost = 2 * registry.CounterValue("dema.synopsis_slices") +
                      registry.CounterValue("dema.candidate_events");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 12));
  // Event rate drifts 5k -> 200k -> 20k events/s per node across the run.
  const std::vector<double> phase_rates = {5'000, 200'000, 20'000};

  std::cout << "=== Ablation: adaptive vs fixed gamma under rate drift "
            << "(5k -> 200k -> 20k ev/s per node, " << windows
            << " windows) ===\n";

  Table table({"policy", "model cost (events)", "wire bytes", "final gamma"});
  for (uint64_t fixed : {uint64_t{10}, uint64_t{1'000}, uint64_t{100'000}}) {
    auto r = RunDrift(/*adaptive=*/false, fixed, windows, phase_rates);
    bench::UnwrapStatus(
        table.AddRow({"fixed gamma=" + std::to_string(fixed),
                      FmtCount(r.model_cost), FmtBytes(r.wire_bytes),
                      std::to_string(r.final_gamma)}),
        "table row");
  }
  auto adaptive = RunDrift(/*adaptive=*/true, 1'000, windows, phase_rates);
  bench::UnwrapStatus(
      table.AddRow({"adaptive (start 1000)", FmtCount(adaptive.model_cost),
                    FmtBytes(adaptive.wire_bytes),
                    std::to_string(adaptive.final_gamma)}),
      "table row");
  bench::EmitTable(table, flags);
  return 0;
}
