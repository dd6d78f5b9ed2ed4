#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace dema::sim {

/// \brief Everything a benchmark harness needs from one run.
struct RunMetrics {
  /// Total events ingested across all local nodes.
  uint64_t events_ingested = 0;
  /// Global windows emitted by the root.
  uint64_t windows_emitted = 0;
  /// Wall-clock run duration (first event to last result).
  double wall_seconds = 0;
  /// events_ingested / wall_seconds.
  double throughput_eps = 0;
  /// Wire traffic summed over all links.
  net::TrafficCounters network_total;
  /// Modelled transfer time over all links.
  double simulated_transfer_us = 0;
  /// Traffic broken down by message type.
  std::map<net::MessageType, net::TrafficCounters> by_type;

  // --- simulated-parallel model (filled by RunSync) ---
  //
  // The synchronous driver executes every node on one OS thread but measures
  // each node's busy time separately. In a real deployment each node is its
  // own machine, so the pipeline's sustainable rate is bounded by the
  // busiest node: sim_throughput_eps = events / max(node busy time). This is
  // the throughput metric the figure harnesses report (the paper's cluster
  // has one machine per node; this box has one core total).
  /// events / busiest-node busy seconds; 0 when not measured.
  double sim_throughput_eps = 0;
  /// Root node busy seconds.
  double root_busy_seconds = 0;
  /// Busiest local node's busy seconds.
  double max_local_busy_seconds = 0;
  /// "root" or "local": which tier bounds the pipeline.
  const char* bottleneck = "";

  // --- observability handles ---
  //
  // The run's metrics registry and per-window trace recorder: the one place
  // the run's counters (`dema.*`, `root.*`, `net.*`, ...) and its window
  // latency (`root.window_latency_us`) live. Always set by the runners:
  // run-owned, or a non-owning alias of the caller's `SystemConfig::registry`
  // / `tracer`, which must then outlive these handles.
  std::shared_ptr<obs::Registry> registry;
  std::shared_ptr<obs::TraceRecorder> tracer;
};

/// \brief Renders the metrics as a compact JSON object (machine-readable
/// output for `demactl --json` and tooling): the run's scalars, its wire
/// totals under `"network"` and, when set, the registry's `ToJson()` under
/// `"registry"`.
std::string RunMetricsToJson(const RunMetrics& metrics);

}  // namespace dema::sim
