#pragma once

// The in-process star (one Dema root, N locals on `net::Network`) that
// star_inline measures and tcp_loopback uses as its reference run.

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "net/message.h"
#include "obs/registry.h"
#include "sim/driver.h"
#include "sim/topology.h"

namespace dema::perfbench {

/// Events per second of event time per local; with 1 s windows this is the
/// local window size.
inline constexpr double kStarEventRate = 20'000;
/// Windows streamed per iteration of the star and TCP workloads.
inline constexpr uint64_t kStarWindows = 40;

/// Pre-generated input of one star iteration and its exact oracle.
struct StarInput {
  sim::WorkloadConfig workload;
  /// events[local][window].
  std::vector<std::vector<std::vector<Event>>> events;
  /// Global window sizes and exact quantile values, per window.
  std::vector<uint64_t> window_sizes;
  std::vector<std::vector<double>> oracle;
  uint64_t gen_events = 0;
  double gen_seconds = 0;
};

/// Instrument readings of one iteration (or their sums over a run).
struct Instruments {
  std::map<net::MessageType, net::TrafficCounters> by_type;
  std::map<std::string, uint64_t> counters;
  /// Sum of every `root.select_us` histogram.
  double select_us = 0;
  /// Largest `local.retained_events_peak` gauge.
  int64_t retained_events_peak = 0;
};

/// Reads the counters, `root.select_us` and retained-events gauges of
/// \p registry; \p by_type is the transport's traffic by message type.
Instruments ReadInstruments(
    const obs::Registry& registry,
    std::map<net::MessageType, net::TrafficCounters> by_type);

/// Sums over the traced iterations of a run.
struct LayerTotals {
  double wall_s = 0;
  uint64_t windows = 0;
  uint64_t events = 0;
  Instruments sum;

  void Add(const Instruments& in, double iteration_wall_s,
           uint64_t iteration_windows, uint64_t iteration_events);
  /// \p total divided by the traced windows.
  double PerWindow(double total) const {
    return windows > 0 ? total / static_cast<double>(windows) : 0;
  }
};

/// Layer metrics every workload reads from its instruments: the `dema.*`
/// ratios and γ updates, `root.select_us`, `local.retained_events_peak`,
/// and the `net.bytes.*` traffic split (keyed: the `kShard*` types).
void AddInstrumentLayers(const LayerTotals& totals, bool keyed, Report* report);

/// What one iteration produced and measured.
struct StarIteration {
  std::vector<sim::WindowOutput> outputs;
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t wire_bytes = 0;
  Instruments instruments;
};

/// The Dema configuration star_inline and tcp_loopback share: adaptive γ
/// starting at 2000, q ∈ {0.5, 0.99}.
sim::SystemConfig StarConfig(size_t locals);

/// Generates every local's windows from \p seed (timed, for
/// `gen.events_per_s`) and computes the exact oracle.
Result<StarInput> PregenerateStar(size_t locals, uint64_t windows,
                                  uint64_t seed,
                                  const std::vector<double>& quantiles);

/// Builds a fresh system, streams \p input through it, and tears it down.
/// With \p log enabled, sends go through a `TimedTransport` and every call
/// into the nodes is a span.
Status RunStarOnce(const sim::SystemConfig& config, const StarInput& input,
                   uint64_t trace_base, SpanLog* log, StarIteration* it);

/// Latencies of \p outputs in microseconds.
std::vector<double> Latencies(const std::vector<sim::WindowOutput>& outputs);

/// Sum of every counter named \p name, with or without a `{label}` suffix.
uint64_t SumCounter(const std::map<std::string, uint64_t>& counters,
                    const std::string& name);

}  // namespace dema::perfbench
