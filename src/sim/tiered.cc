#include "sim/tiered.h"

#include <algorithm>
#include <chrono>

#include "sim/ingest_adapter.h"
#include "sim/pump.h"

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

Result<TieredSystem> BuildTieredSystem(const TieredConfig& config,
                                       net::Network* network,
                                       const Clock* clock) {
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

  TieredSystem tiered;
  DEMA_ASSIGN_OR_RETURN(tiered.system,
                        BuildSystem(config.system, network, clock));

  // Wrap every local in an ingest adapter fed by its sensors.
  NodeId next_sensor = static_cast<NodeId>(config.system.num_locals + 1);
  for (size_t i = 0; i < tiered.system.locals.size(); ++i) {
    std::vector<NodeId> children;
    for (size_t j = 0; j < config.sensors_per_local; ++j) {
      NodeId sensor_id = next_sensor++;
      DEMA_RETURN_NOT_OK(network->RegisterNode(sensor_id));
      children.push_back(sensor_id);

      StreamNodeOptions opts;
      opts.id = sensor_id;
      opts.parent = tiered.system.local_ids[i];
      opts.batch_size = config.sensor_batch_size;
      opts.codec = config.system.wire_codec;
      opts.generator =
          config.sensor_generators[i * config.sensors_per_local + j];
      DEMA_ASSIGN_OR_RETURN(auto sensor, StreamNode::Create(opts, network));
      tiered.sensors.push_back(std::move(sensor));
    }
    tiered.sensor_ids.push_back(children);
    tiered.system.locals[i] = std::make_unique<IngestAdapter>(
        std::move(tiered.system.locals[i]), children);
  }
  return tiered;
}

TieredSyncDriver::TieredSyncDriver(TieredSystem* tiered, net::Network* network)
    : tiered_(tiered), network_(network) {}

Status TieredSyncDriver::PumpMessages() {
  return PumpToQuiescence(
      network_,
      SystemPumpNodes(tiered_->system, &root_busy_us_, &local_busy_us_));
}

Status TieredSyncDriver::Run(uint64_t num_windows, DurationUs window_len_us,
                             DurationUs window_slide_us) {
  System& system = tiered_->system;
  local_busy_us_.assign(system.locals.size(), 0.0);
  root_busy_us_ = 0;
  system.root->SetResultCallback(
      [this](const WindowOutput& out) { outputs_.push_back(out); });

  for (uint64_t w = 0; w < num_windows; ++w) {
    TimestampUs start = static_cast<TimestampUs>(w) * window_len_us;
    for (auto& sensor : tiered_->sensors) {
      DEMA_RETURN_NOT_OK(sensor->PumpInterval(start, window_len_us));
    }
    DEMA_RETURN_NOT_OK(PumpMessages());
  }
  TimestampUs final_ts = static_cast<TimestampUs>(num_windows) * window_len_us;
  for (auto& sensor : tiered_->sensors) {
    DEMA_RETURN_NOT_OK(sensor->Finish(final_ts));
  }
  DEMA_RETURN_NOT_OK(PumpMessages());
  for (size_t i = 0; i < system.locals.size(); ++i) {
    Status st;
    local_busy_us_[i] +=
        TimedUs([&] { return system.locals[i]->OnFinish(final_ts); }, &st);
    DEMA_RETURN_NOT_OK(st);
  }
  DEMA_RETURN_NOT_OK(PumpMessages());

  stream::SlidingWindowAssigner assigner(
      stream::WindowSpec{window_len_us, window_slide_us});
  uint64_t expected = assigner.ClosedUpTo(final_ts);
  if (system.root->windows_emitted() != expected) {
    return Status::Internal(
        "root emitted " + std::to_string(system.root->windows_emitted()) +
        " windows, expected " + std::to_string(expected));
  }
  if (!system.root->idle()) {
    return Status::Internal("root still has pending windows after run");
  }
  return Status::OK();
}

uint64_t TieredSyncDriver::events_produced() const {
  uint64_t total = 0;
  for (const auto& sensor : tiered_->sensors) total += sensor->events_produced();
  return total;
}

double TieredSyncDriver::max_local_busy_seconds() const {
  double max_us = 0;
  for (double b : local_busy_us_) max_us = std::max(max_us, b);
  return max_us / 1e6;
}

Result<TieredRunMetrics> RunTiered(const TieredConfig& config,
                                   uint64_t num_windows) {
  RealClock clock;
  net::Network network(&clock);
  DEMA_ASSIGN_OR_RETURN(TieredSystem tiered,
                        BuildTieredSystem(config, &network, &clock));
  TieredSyncDriver driver(&tiered, &network);
  auto wall_start = std::chrono::steady_clock::now();
  DEMA_RETURN_NOT_OK(driver.Run(num_windows, config.system.window_len_us,
                                config.system.window_slide_us));
  auto wall_end = std::chrono::steady_clock::now();

  TieredRunMetrics metrics;
  metrics.events_produced = driver.events_produced();
  metrics.run.events_ingested = metrics.events_produced;
  metrics.run.windows_emitted = tiered.system.root->windows_emitted();
  metrics.run.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  LatencyRecorder latency;
  for (const WindowOutput& out : driver.outputs()) latency.Record(out.latency_us);
  metrics.run.latency = latency.Summarize();
  auto total = network.TotalStats();
  metrics.run.network_total = total.counters;
  metrics.run.simulated_transfer_us = total.simulated_transfer_us;
  metrics.run.by_type = network.StatsByType();
  metrics.run.root_busy_seconds = driver.root_busy_seconds();
  metrics.run.max_local_busy_seconds = driver.max_local_busy_seconds();
  double bottleneck = std::max(metrics.run.root_busy_seconds,
                               metrics.run.max_local_busy_seconds);
  metrics.run.sim_throughput_eps =
      bottleneck > 0 ? static_cast<double>(metrics.events_produced) / bottleneck
                     : 0;
  metrics.run.bottleneck =
      metrics.run.root_busy_seconds >= metrics.run.max_local_busy_seconds
          ? "root"
          : "local";
  if (auto* dema_root =
          dynamic_cast<core::DemaRootNode*>(tiered.system.root.get())) {
    metrics.run.dema = dema_root->stats();
  }

  // Tier split: any endpoint above the local-id range is a sensor.
  NodeId max_local = static_cast<NodeId>(config.system.num_locals);
  for (const auto& [link, stats] : network.AllLinks()) {
    if (link.first > max_local || link.second > max_local) {
      metrics.sensor_tier += stats.counters;
    } else {
      metrics.aggregation_tier += stats.counters;
    }
  }
  return metrics;
}

}  // namespace dema::sim
