// Adaptive slice factor in action (Section 3.3 of the paper).
//
// The workload drifts: a quiet night (5k ev/s per node) ramps into a morning
// rush (150k ev/s) and settles at a daytime plateau (40k ev/s). After every
// window the root re-optimizes gamma* = sqrt(2 l_G / m) from the observed
// window size and candidate-slice count and broadcasts it to the local
// nodes. This example drives the pipeline window-by-window and prints the
// trajectory.
//
// Build & run:  cmake --build build && ./build/examples/adaptive_gamma

#include <iostream>

#include "common/clock.h"
#include "common/table.h"
#include "dema/adaptive_gamma.h"
#include "dema/root_node.h"
#include "gen/generator.h"
#include "sim/pump.h"
#include "sim/topology.h"

using namespace dema;

namespace {

double RateForWindow(uint64_t w) {
  if (w < 4) return 5'000;    // night
  if (w < 8) return 150'000;  // rush hour
  return 40'000;              // daytime plateau
}

}  // namespace

int main() {
  const uint64_t kWindows = 12;
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = 2;
  config.gamma = 5'000;  // deliberately off; watch it converge
  config.adaptive_gamma = true;

  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  if (!system_result.ok()) {
    std::cerr << "setup failed: " << system_result.status() << "\n";
    return 1;
  }
  sim::System system = std::move(system_result).MoveValueUnsafe();
  auto* root = static_cast<core::DemaRootNode*>(system.root.get());

  Table table({"window", "rate/node", "l_G", "candidate slices",
               "candidate events", "gamma after window"});
  uint64_t last_candidate_slices = 0, last_candidate_events = 0;
  std::vector<sim::WindowOutput> outputs;
  root->SetResultCallback(
      [&](const sim::WindowOutput& out) { outputs.push_back(out); });

  for (uint64_t w = 0; w < kWindows; ++w) {
    double rate = RateForWindow(w);
    TimestampUs start = static_cast<TimestampUs>(w) * config.window_len_us;
    for (size_t i = 0; i < system.locals.size(); ++i) {
      gen::GeneratorConfig gcfg;
      gcfg.node = system.local_ids[i];
      gcfg.seed = 7 + w * 31 + i;
      gcfg.distribution.kind = gen::DistributionKind::kSensorWalk;
      gcfg.distribution.lo = 0;
      gcfg.distribution.hi = 10'000;
      gcfg.distribution.stddev = 25;
      gcfg.event_rate = rate;
      gcfg.start_time_us = start;
      auto gen_result = gen::StreamGenerator::Create(gcfg);
      if (!gen_result.ok()) {
        std::cerr << "generator: " << gen_result.status() << "\n";
        return 1;
      }
      auto gen = std::move(gen_result).MoveValueUnsafe();
      for (const Event& e : gen->GenerateWindow(start, config.window_len_us)) {
        (void)system.locals[i]->OnEvent(e);
      }
      (void)system.locals[i]->OnWatermark(start + config.window_len_us);
    }
    Status st = sim::PumpToQuiescence(&network, sim::SystemPumpNodes(system));
    if (!st.ok()) {
      std::cerr << "pump: " << st << "\n";
      return 1;
    }

    const uint64_t candidate_slices =
        root->registry()->CounterValue("dema.candidate_slices");
    const uint64_t candidate_events =
        root->registry()->CounterValue("dema.candidate_events");
    (void)table.AddRow(
        {std::to_string(w), FmtRate(rate),
         FmtCount(outputs.empty() ? 0 : outputs.back().global_size),
         FmtCount(candidate_slices - last_candidate_slices),
         FmtCount(candidate_events - last_candidate_events),
         std::to_string(root->current_gamma())});
    last_candidate_slices = candidate_slices;
    last_candidate_events = candidate_events;
  }
  table.Print(std::cout);

  std::cout << "\nCost-model reference points (gamma* = sqrt(2 l_G / m)):\n";
  for (double rate : {5'000.0, 150'000.0, 40'000.0}) {
    uint64_t l_g = static_cast<uint64_t>(rate) * 2;
    std::cout << "  rate " << FmtRate(rate) << " per node -> l_G=" << FmtCount(l_g)
              << ", gamma*(m=2) = " << core::OptimalGamma(l_g, 2) << "\n";
  }
  return 0;
}
