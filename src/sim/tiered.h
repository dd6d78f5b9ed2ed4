#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "net/network.h"
#include "sim/driver.h"
#include "sim/metrics.h"
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
  /// i at index i * sensors_per_local + j). Node ids are assigned by
  /// `TieredWorkload`. When empty, `MakeTieredWorkload` fills homogeneous
  /// sensors.
  std::vector<gen::GeneratorConfig> sensor_generators;
  /// Events per sensor -> edge message.
  size_t sensor_batch_size = 256;
};

/// \brief Fills `TieredConfig::sensor_generators` with homogeneous sensors
/// (distinct seeds; per-sensor rate = node_rate / sensors_per_local so a
/// local node sees `event_rate` in total, matching the flat setup).
void MakeTieredWorkload(TieredConfig* config, double node_event_rate,
                        const gen::DistributionParams& distribution,
                        uint64_t seed_base = 5000);

/// \brief The `SyncDriver` workload of \p config: its sensor generators,
/// each stamped with its sensor's node id, over \p num_windows windows of
/// the system's window spec.
WorkloadConfig TieredWorkload(const TieredConfig& config, uint64_t num_windows);

/// \brief Builds the three-tier topology on \p network: a `System` whose
/// locals are IngestAdapter-wrapped edge nodes fed by its sensor tier.
///
/// Node id scheme: root = 0, locals = 1..N, sensor j of local i =
/// N + i*S + j + 1 (so any id above N belongs to the sensor tier).
Result<System> BuildTieredSystem(const TieredConfig& config,
                                 net::Network* network, const Clock* clock);

/// \brief Run metrics extended with per-tier network accounting.
struct TieredRunMetrics {
  /// The metrics `RunSync` reports; `run.events_ingested` counts every event
  /// the sensors produced.
  RunMetrics run;
  /// Sensor -> edge traffic (identical across aggregation systems).
  net::TrafficCounters sensor_tier;
  /// Edge <-> root traffic (what the aggregation system determines).
  net::TrafficCounters aggregation_tier;
};

/// \brief Convenience: builds the tiered topology, runs it through
/// `SyncDriver` for \p num_windows windows, and returns metrics with the
/// per-tier traffic split.
Result<TieredRunMetrics> RunTiered(const TieredConfig& config,
                                   uint64_t num_windows);

}  // namespace dema::sim
