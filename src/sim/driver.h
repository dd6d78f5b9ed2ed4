#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "gen/generator.h"
#include "net/network.h"
#include "sim/metrics.h"
#include "sim/node.h"
#include "sim/topology.h"
#include "stream/window.h"

namespace dema::sim {

/// \brief Per-local-node workload description for a run.
struct WorkloadConfig {
  /// Value distribution and pacing of each event source: one entry per
  /// local node (entry i drives local_ids[i]) or, for a system with a sensor
  /// tier, one per sensor in local-major order.
  std::vector<gen::GeneratorConfig> generators;
  /// Number of window-lengths of event time to generate (for tumbling
  /// windows this is exactly the number of emitted windows; for sliding
  /// windows more windows close within the same horizon).
  uint64_t num_windows = 10;
  /// Window lifespan; must match the system's (the convenience runners copy
  /// it from the system config).
  DurationUs window_len_us = kMicrosPerSecond;
  /// Slide step; 0 = tumbling. Must match the system's.
  DurationUs window_slide_us = 0;
  /// Bounded out-of-order delivery: each event may arrive up to this much
  /// event time late (0 = perfectly ordered).
  DurationUs max_disorder_us = 0;
  /// Watermark hold-back. With allowed_lateness >= max_disorder no event is
  /// dropped and results stay exact; smaller values trade completeness for
  /// freshness (drops are counted by the window managers).
  DurationUs allowed_lateness_us = 0;

  /// Windows that fully close within the generated event-time horizon.
  uint64_t ExpectedWindows() const {
    stream::SlidingWindowAssigner assigner(
        stream::WindowSpec{window_len_us, window_slide_us});
    return assigner.ClosedUpTo(static_cast<TimestampUs>(num_windows) *
                               window_len_us);
  }
};

/// \brief Builds a homogeneous workload: every node runs the same
/// distribution with a distinct seed; node i's value scale is
/// \p scale_rates[i] (1.0 when the vector is shorter).
WorkloadConfig MakeUniformWorkload(size_t num_locals, uint64_t num_windows,
                                   double event_rate,
                                   const gen::DistributionParams& distribution,
                                   const std::vector<double>& scale_rates = {},
                                   uint64_t seed_base = 1000);

/// \brief Deterministic single-threaded driver of every in-process system —
/// flat, tree and tiered (tests, accuracy experiments, network-cost
/// accounting, and the fault/topology harness `RunScenario`).
///
/// Generates each window's events for every source, hands them to the
/// locals — directly, or through the sensors' `EventBatch` and `TimeAdvance`
/// messages in a tiered system — then pumps messages until the system is
/// quiescent. All ordering is deterministic given the generator seeds.
/// Every emitted window's latency is recorded in the fabric registry's
/// `root.window_latency_us` histogram.
class SyncDriver {
 public:
  /// Wires the driver; \p system nodes must be registered on \p network.
  SyncDriver(System* system, net::Network* network);

  /// Runs the whole workload; fails on the first node error.
  Status Run(const WorkloadConfig& workload);

  /// Prepares a window-by-window run of \p workload: creates the
  /// generators, installs the root's result callback and resets the
  /// accounts. A harness that changes the system between windows calls it,
  /// then `Step` for each window and `Finish`; `Run` does the same.
  Status Start(const WorkloadConfig& workload);
  /// Runs window \p w: generates every source's events, hands those of the
  /// live locals on (a null local is crashed, and its events are lost at the
  /// source), advances the watermarks of the live, directly fed locals to
  /// the window end (a sensor-fed local's clock comes from its sensors),
  /// pumps, ticks the root and pumps again.
  Status Step(uint64_t w);
  /// Ends every live local's stream at the workload horizon and pumps.
  Status Finish();
  /// Dispatches queued messages until the fabric is quiescent, charging
  /// each node's busy-time account.
  Status Pump();

  /// Outputs emitted by the root, in emission order.
  const std::vector<WindowOutput>& outputs() const { return outputs_; }

  /// When enabled before Run/Start, keeps every fed event per window so
  /// tests can compute oracle quantiles.
  void set_record_events(bool record) { record_events_ = record; }
  /// Fed events per window id (only when recording was enabled).
  const std::vector<std::vector<Event>>& recorded_events() const {
    return recorded_;
  }

  /// Total events handed to the locals (directly or through sensors).
  uint64_t events_ingested() const { return events_ingested_; }

  /// Busy seconds of local node \p i (work it performed on its own "CPU").
  double local_busy_seconds(size_t i) const { return local_busy_us_[i] / 1e6; }
  /// Busy seconds of the root node.
  double root_busy_seconds() const { return root_busy_us_ / 1e6; }
  /// Busy seconds of the busiest local node.
  double max_local_busy_seconds() const;

 private:
  /// Out-of-order mode (max_disorder_us > 0): chunked round-robin delivery
  /// with held-back watermarks.
  Status RunDisordered();

  /// Where generator i's events go: local `local`, through `sensor` when
  /// the local is sensor-fed.
  struct Feed {
    size_t local = 0;
    StreamNode* sensor = nullptr;
  };

  System* system_;
  net::Network* network_;
  WorkloadConfig workload_;
  std::vector<std::unique_ptr<gen::StreamGenerator>> gens_;
  std::vector<Feed> feeds_;
  std::vector<WindowOutput> outputs_;
  std::vector<std::vector<Event>> recorded_;
  bool record_events_ = false;
  uint64_t events_ingested_ = 0;
  std::vector<double> local_busy_us_;
  double root_busy_us_ = 0;
};

/// \brief The sink \p slot points at, as a non-owning alias; when \p slot
/// is null, a fresh run-owned sink, which \p slot then points at.
template <typename Sink>
std::shared_ptr<Sink> RunSink(Sink** slot) {
  if (*slot != nullptr) {
    return std::shared_ptr<Sink>(std::shared_ptr<Sink>(), *slot);
  }
  auto owned = std::make_shared<Sink>();
  *slot = owned.get();
  return owned;
}

/// \brief Points \p metrics' observability handles at the run's sinks:
/// \p config's registry and tracer when set (as non-owning aliases), or
/// fresh run-owned ones, which then fill \p config's null slots. Every
/// runner calls it first, so `RunMetrics::registry` is always set.
void BindRunObs(SystemConfig* config, RunMetrics* metrics);

/// \brief Builds a system from a config (with the observability slots
/// filled) on a fabric.
using SystemBuilder = std::function<Result<System>(
    const SystemConfig&, net::Network*, const Clock*)>;

/// \brief The body of every in-process runner: builds \p system_config's
/// topology with \p build on a fresh fabric, runs \p workload (window
/// length and slide copied from the config) through a `SyncDriver` and
/// returns the metrics. \p inspect, when set, reads the fabric after the run.
Result<RunMetrics> RunBuilt(
    const SystemConfig& system_config, const WorkloadConfig& workload,
    const SystemBuilder& build,
    const std::function<void(const net::Network&)>& inspect = {});

/// \brief Convenience: builds the system + network and runs the synchronous
/// driver, returning metrics with network accounting (no meaningful wall
/// time). Used by network-cost experiments where determinism matters.
Result<RunMetrics> RunSync(const SystemConfig& system_config,
                           const WorkloadConfig& workload);

}  // namespace dema::sim
