#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "net/network.h"
#include "sim/driver.h"
#include "sim/metrics.h"
#include "sim/stream_node.h"
#include "sim/topology.h"

namespace dema::sim {

/// \brief Configuration of the full three-tier topology of the paper's
/// Figure 1: data-stream nodes -> local (edge) nodes -> root.
struct TieredConfig {
  /// The aggregation system running on the edge/root tiers.
  SystemConfig system;
  /// Sensors attached to each local node.
  size_t sensors_per_local = 4;
  /// Generator configs, one per sensor, local-major order (sensor j of local
  /// i at index i * sensors_per_local + j). Node ids are assigned by the
  /// builder. When empty, `MakeTieredWorkload` fills homogeneous sensors.
  std::vector<gen::GeneratorConfig> sensor_generators;
  /// Events per sensor -> edge message.
  size_t sensor_batch_size = 256;
};

/// \brief A built three-tier topology.
///
/// Node id scheme: root = 0, locals = 1..N, sensor j of local i =
/// N + i*S + j + 1 (so any id above N belongs to the sensor tier).
struct TieredSystem {
  System system;  // root + adapted locals, registered on the network
  std::vector<std::unique_ptr<StreamNode>> sensors;
  /// sensors_per_local ids per local, aligned with system.local_ids.
  std::vector<std::vector<NodeId>> sensor_ids;
};

/// \brief Fills `TieredConfig::sensor_generators` with homogeneous sensors
/// (distinct seeds; per-sensor rate = node_rate / sensors_per_local so a
/// local node sees `event_rate` in total, matching the flat setup).
void MakeTieredWorkload(TieredConfig* config, double node_event_rate,
                        const gen::DistributionParams& distribution,
                        uint64_t seed_base = 5000);

/// \brief Builds the three-tier topology on \p network: stream nodes ship
/// raw events to IngestAdapter-wrapped edge nodes.
Result<TieredSystem> BuildTieredSystem(const TieredConfig& config,
                                       net::Network* network,
                                       const Clock* clock);

/// \brief Run metrics extended with per-tier network accounting.
struct TieredRunMetrics {
  RunMetrics run;
  /// Sensor -> edge traffic (identical across aggregation systems).
  net::TrafficCounters sensor_tier;
  /// Edge <-> root traffic (what the aggregation system determines).
  net::TrafficCounters aggregation_tier;
  /// Events generated across all sensors.
  uint64_t events_produced = 0;
};

/// \brief Deterministic driver for the three-tier topology: pumps every
/// sensor interval-by-interval, dispatches messages until quiescent, and
/// verifies the root emitted every window.
class TieredSyncDriver {
 public:
  TieredSyncDriver(TieredSystem* tiered, net::Network* network);

  /// Runs \p num_windows window-lengths of event time.
  Status Run(uint64_t num_windows, DurationUs window_len_us,
             DurationUs window_slide_us = 0);

  /// Outputs emitted by the root, in emission order.
  const std::vector<WindowOutput>& outputs() const { return outputs_; }
  /// Events generated across all sensors.
  uint64_t events_produced() const;
  /// Busy seconds of the busiest edge node.
  double max_local_busy_seconds() const;
  /// Busy seconds of the root.
  double root_busy_seconds() const { return root_busy_us_ / 1e6; }

 private:
  Status PumpMessages();

  TieredSystem* tiered_;
  net::Network* network_;
  std::vector<WindowOutput> outputs_;
  std::vector<double> local_busy_us_;
  double root_busy_us_ = 0;
};

/// \brief Convenience: builds the tiered topology, runs the driver, and
/// returns metrics with the per-tier traffic split.
Result<TieredRunMetrics> RunTiered(const TieredConfig& config,
                                   uint64_t num_windows);

}  // namespace dema::sim
