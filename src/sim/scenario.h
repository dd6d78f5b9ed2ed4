#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/chaos.h"
#include "sim/driver.h"
#include "sim/topology.h"

namespace dema::sim {

/// \brief One run of the in-process fault and topology harness: a fabric
/// (inline, flat event-driven, or a routed multi-hop topology), optionally
/// under a fault plan.
struct ScenarioOptions {
  /// Fabric spec:
  /// - `inline`: inline delivery without virtual time. The only fabric that
  ///   takes scheduled crashes, partitions and tampers.
  /// - `flat`: event-driven delivery over the single-hop link model.
  /// - A routed topology (`star`, `tree[:fanout=F]`, `fat-tree[:k=K]`,
  ///   `wan[:regions=R]` — see `tick::Topology`): event-driven delivery
  ///   hop by hop.
  std::string topology = "flat";
  /// Probabilistic faults, scheduled crashes / partitions / tampers, and
  /// the root's recovery options. A plan with any fault needs the Dema
  /// system and `recovery.deadline_ticks` > 0, and its `recovery` replaces
  /// the system's; a fault-free plan leaves the system untouched.
  FaultPlan faults;
};

/// \brief One window's verdict against the oracle over the fed events (a
/// crashed local's events are lost at the source, so they are not part of
/// the ground truth — the same ground truth a flat run is checked against).
struct WindowVerdict {
  /// The root's output for the window; only `window_id` is set when the
  /// window was never emitted.
  WindowOutput output;
  bool emitted = false;
  /// Oracle values over the fed events, parallel to the quantiles (empty
  /// for an empty window).
  std::vector<double> oracle;
  /// Exact (non-degraded) windows only: the output equals the oracle.
  bool matches_oracle = false;
};

/// \brief Outcome of one scenario run. Everything except the wall/busy
/// timings is deterministic for a fixed (workload, options) pair —
/// `DescribeScenarioDiff` compares exactly that deterministic surface.
struct ScenarioReport {
  /// Canonical fabric name, e.g. "inline", "flat" or "fat-tree:k=16".
  std::string topology;
  uint64_t num_locals = 0;
  uint64_t events_ingested = 0;
  /// One verdict per window id.
  std::vector<WindowVerdict> windows;
  uint64_t exact_windows = 0;
  uint64_t degraded_windows = 0;
  uint64_t mismatched_windows = 0;
  uint64_t missing_windows = 0;
  bool root_idle = false;
  /// Discrete-event accounting (zero on the inline fabric).
  uint64_t event_queue_peak = 0;
  uint64_t virtual_time_us = 0;
  /// Scheduled crash-restarts (no registry counter).
  uint64_t restarts = 0;
  /// Wire accounting (endpoint-to-endpoint, identical to a flat run).
  net::TrafficCounters network_total;
  double simulated_transfer_us = 0;
  /// The run registry's counters at the end of the run: the fabric's
  /// (`sim.ticks`, `sim.events`, `net.dropped`, `net.delayed`,
  /// `net.corrupted`, `net.duplicates.*`, ...) and the root's
  /// (`root.retries`, `dema.rejected`, `dema.quarantined`, `dema.readmitted`,
  /// ...).
  std::map<std::string, uint64_t> counters;
  /// Timings (not part of the deterministic surface).
  double wall_seconds = 0;
  double throughput_eps = 0;
  double root_busy_seconds = 0;
  double max_local_busy_seconds = 0;
  double sim_throughput_eps = 0;
  /// First invariant violation; empty when every window emitted exactly
  /// (matching the oracle) or explicitly degraded with a cause, and the
  /// root ended idle.
  std::string violation;

  bool Invariant() const { return violation.empty(); }
  /// Value of counter \p name in `counters`; 0 when it was never created.
  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  /// Duplicate deliveries the fabric injected: the snapshot's
  /// `net.duplicates.messages{type=...}` counters, summed.
  uint64_t duplicates() const {
    const std::string prefix = "net.duplicates.messages{type=";
    uint64_t sum = 0;
    for (auto it = counters.lower_bound(prefix);
         it != counters.end() && it->first.starts_with(prefix); ++it) {
      sum += it->second;
    }
    return sum;
  }
};

/// \brief Runs \p system_config / \p workload over the fabric
/// \p options.topology under \p options.faults, one `SyncDriver::Step` per
/// window, and checks every window against the oracle. Scheduled faults act
/// at window boundaries: a crashed local checkpoints, loses its inbox and
/// in-memory state, and restarts from the checkpoint with a gamma re-sync.
/// Tumbling windows only.
Result<ScenarioReport> RunScenario(const SystemConfig& system_config,
                                   const WorkloadConfig& workload,
                                   const ScenarioOptions& options);

/// \brief Human-readable first difference between two scenario reports'
/// deterministic surfaces (per-window outputs, verdict counts, event-queue
/// and virtual-time accounting, restarts, and the full counter snapshot,
/// injected duplicates included); empty when byte-identical.
std::string DescribeScenarioDiff(const ScenarioReport& a,
                                 const ScenarioReport& b);

}  // namespace dema::sim
