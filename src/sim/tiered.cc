#include "sim/tiered.h"

#include <algorithm>

#include "sim/ingest_adapter.h"

namespace dema::sim {

void MakeTieredWorkload(TieredConfig* config, double node_event_rate,
                        const gen::DistributionParams& distribution,
                        uint64_t seed_base) {
  config->sensor_generators.clear();
  size_t total =
      config->system.num_locals * std::max<size_t>(1, config->sensors_per_local);
  double per_sensor_rate =
      node_event_rate / static_cast<double>(config->sensors_per_local);
  for (size_t i = 0; i < total; ++i) {
    gen::GeneratorConfig cfg;
    cfg.seed = seed_base + i * 6151;
    cfg.distribution = distribution;
    cfg.event_rate = per_sensor_rate;
    config->sensor_generators.push_back(cfg);
  }
}

WorkloadConfig TieredWorkload(const TieredConfig& config,
                              uint64_t num_windows) {
  WorkloadConfig load;
  load.generators = config.sensor_generators;
  // Events carry their sensor's identity.
  for (size_t k = 0; k < load.generators.size(); ++k) {
    load.generators[k].node =
        static_cast<NodeId>(config.system.num_locals + k + 1);
  }
  load.num_windows = num_windows;
  load.window_len_us = config.system.window_len_us;
  load.window_slide_us = config.system.window_slide_us;
  return load;
}

Result<System> BuildTieredSystem(const TieredConfig& config,
                                 net::Network* network, const Clock* clock) {
  if (config.sensors_per_local == 0) {
    return Status::InvalidArgument("need at least one sensor per local node");
  }
  size_t expected =
      config.system.num_locals * config.sensors_per_local;
  if (config.sensor_generators.size() != expected) {
    return Status::InvalidArgument(
        "sensor_generators size " + std::to_string(config.sensor_generators.size()) +
        " != locals x sensors_per_local = " + std::to_string(expected));
  }

  DEMA_ASSIGN_OR_RETURN(System system,
                        BuildSystem(config.system, network, clock));

  // Wrap every local in an ingest adapter fed by its sensors.
  NodeId next_sensor = static_cast<NodeId>(config.system.num_locals + 1);
  system.sensors.resize(system.locals.size());
  for (size_t i = 0; i < system.locals.size(); ++i) {
    std::vector<NodeId> children;
    for (size_t j = 0; j < config.sensors_per_local; ++j) {
      NodeId sensor_id = next_sensor++;
      DEMA_RETURN_NOT_OK(network->RegisterNode(sensor_id));
      children.push_back(sensor_id);

      StreamNodeOptions opts;
      opts.id = sensor_id;
      opts.parent = system.local_ids[i];
      opts.batch_size = config.sensor_batch_size;
      opts.codec = config.system.wire_codec;
      system.sensors[i].emplace_back(opts, network);
    }
    system.locals[i] = std::make_unique<IngestAdapter>(
        std::move(system.locals[i]), children);
  }
  return system;
}

Result<TieredRunMetrics> RunTiered(const TieredConfig& config,
                                   uint64_t num_windows) {
  TieredRunMetrics metrics;
  // Tier split: any endpoint above the local-id range is a sensor.
  const NodeId max_local = static_cast<NodeId>(config.system.num_locals);
  auto split = [&](const net::Network& network) {
    for (const auto& [link, stats] : network.AllLinks()) {
      if (link.first > max_local || link.second > max_local) {
        metrics.sensor_tier += stats.counters;
      } else {
        metrics.aggregation_tier += stats.counters;
      }
    }
  };
  auto build = [&](const SystemConfig& system_config, net::Network* network,
                   const Clock* clock) {
    TieredConfig built = config;
    built.system = system_config;
    return BuildTieredSystem(built, network, clock);
  };
  DEMA_ASSIGN_OR_RETURN(
      metrics.run,
      RunBuilt(config.system, TieredWorkload(config, num_windows), build, split));
  return metrics;
}

}  // namespace dema::sim
