#include "sim/driver.h"

#include <algorithm>
#include <chrono>

#include "gen/disorder.h"
#include "sim/pump.h"

namespace dema::sim {

WorkloadConfig MakeUniformWorkload(size_t num_locals, uint64_t num_windows,
                                   double event_rate,
                                   const gen::DistributionParams& distribution,
                                   const std::vector<double>& scale_rates,
                                   uint64_t seed_base) {
  WorkloadConfig workload;
  workload.num_windows = num_windows;
  for (size_t i = 0; i < num_locals; ++i) {
    gen::GeneratorConfig cfg;
    cfg.node = static_cast<NodeId>(i + 1);
    cfg.seed = seed_base + i * 7919;  // distinct streams per node
    cfg.distribution = distribution;
    cfg.event_rate = event_rate;
    cfg.scale_rate = i < scale_rates.size() ? scale_rates[i] : 1.0;
    workload.generators.push_back(cfg);
  }
  return workload;
}

// ---------------------------------------------------------------------------
// SyncDriver
// ---------------------------------------------------------------------------

SyncDriver::SyncDriver(System* system, net::Network* network)
    : system_(system), network_(network) {}

Status SyncDriver::Pump() {
  return PumpToQuiescence(
      network_, SystemPumpNodes(*system_, &root_busy_us_, &local_busy_us_));
}

double SyncDriver::max_local_busy_seconds() const {
  double max_us = 0;
  for (double b : local_busy_us_) max_us = std::max(max_us, b);
  return max_us / 1e6;
}

Status SyncDriver::Run(const WorkloadConfig& workload) {
  DEMA_RETURN_NOT_OK(Start(workload));
  if (workload.max_disorder_us > 0) {
    DEMA_RETURN_NOT_OK(RunDisordered());
  } else {
    for (uint64_t w = 0; w < workload.num_windows; ++w) {
      DEMA_RETURN_NOT_OK(Step(w));
    }
  }
  DEMA_RETURN_NOT_OK(Finish());

  if (system_->root->windows_emitted() != workload.ExpectedWindows()) {
    return Status::Internal(
        "root emitted " + std::to_string(system_->root->windows_emitted()) +
        " windows, expected " + std::to_string(workload.ExpectedWindows()));
  }
  if (!system_->root->idle()) {
    return Status::Internal("root still has pending windows after run");
  }
  for (const auto& relay : system_->relays) {
    if (!relay->idle()) {
      return Status::Internal("relay still has pending windows after run");
    }
  }
  return Status::OK();
}

Status SyncDriver::Start(const WorkloadConfig& workload) {
  feeds_.clear();
  for (size_t i = 0; i < system_->locals.size(); ++i) {
    if (system_->sensors.empty()) {
      feeds_.push_back({i, nullptr});
      continue;
    }
    for (StreamNode& sensor : system_->sensors[i]) {
      feeds_.push_back({i, &sensor});
    }
  }
  if (workload.generators.size() != feeds_.size()) {
    return Status::InvalidArgument("generator count != event source count");
  }
  if (!system_->sensors.empty() && workload.max_disorder_us > 0) {
    return Status::InvalidArgument(
        "a sensor-fed system takes ordered intervals, not a disordered "
        "workload");
  }
  workload_ = workload;
  gens_.clear();
  for (const auto& cfg : workload.generators) {
    DEMA_ASSIGN_OR_RETURN(auto g, gen::StreamGenerator::Create(cfg));
    gens_.push_back(std::move(g));
  }
  obs::Histogram* latency =
      network_->registry()->GetHistogram("root.window_latency_us");
  system_->root->SetResultCallback([this, latency](const WindowOutput& out) {
    latency->Record(out.latency_us < 0 ? 0
                                       : static_cast<uint64_t>(out.latency_us));
    outputs_.push_back(out);
  });
  if (record_events_) recorded_.assign(workload.num_windows, {});
  local_busy_us_.assign(system_->locals.size(), 0.0);
  root_busy_us_ = 0;
  return Status::OK();
}

Status SyncDriver::Step(uint64_t w) {
  const DurationUs len = workload_.window_len_us;
  TimestampUs start = static_cast<TimestampUs>(w) * len;
  TimestampUs end = start + len;
  for (size_t g = 0; g < gens_.size(); ++g) {
    // Generate for every source, crashed local or not, so each source's
    // event sequence is the same under every fault plan.
    std::vector<Event> events = gens_[g]->GenerateWindow(start, len);
    const Feed& feed = feeds_[g];
    LocalNodeLogic* local = system_->locals[feed.local].get();
    if (local == nullptr) continue;
    Status st;
    if (feed.sensor != nullptr) {
      // Sensor work, not the local's: the local is charged when the pump
      // delivers the batches.
      st = feed.sensor->Ship(events, end);
    } else {
      local_busy_us_[feed.local] += TimedUs(
          [&]() -> Status {
            for (const Event& e : events) DEMA_RETURN_NOT_OK(local->OnEvent(e));
            return Status::OK();
          },
          &st);
    }
    DEMA_RETURN_NOT_OK(st);
    events_ingested_ += events.size();
    if (record_events_) {
      auto& rec = recorded_[w];
      rec.insert(rec.end(), events.begin(), events.end());
    }
  }
  if (system_->sensors.empty()) {
    for (size_t i = 0; i < system_->locals.size(); ++i) {
      LocalNodeLogic* local = system_->locals[i].get();
      if (local == nullptr) continue;
      Status st;
      local_busy_us_[i] +=
          TimedUs([&] { return local->OnWatermark(end); }, &st);
      DEMA_RETURN_NOT_OK(st);
    }
  }
  DEMA_RETURN_NOT_OK(Pump());
  // Drives the root's deadline machinery; a no-op with deadline_ticks == 0.
  DEMA_RETURN_NOT_OK(system_->root->Tick());
  return Pump();
}

Status SyncDriver::Finish() {
  const TimestampUs horizon =
      static_cast<TimestampUs>(workload_.num_windows) * workload_.window_len_us;
  for (const Feed& feed : feeds_) {
    if (feed.sensor == nullptr || system_->locals[feed.local] == nullptr) {
      continue;
    }
    DEMA_RETURN_NOT_OK(feed.sensor->Finish(horizon));
  }
  // Delivers the sensors' end-of-stream markers before the locals finish.
  DEMA_RETURN_NOT_OK(Pump());
  for (size_t i = 0; i < system_->locals.size(); ++i) {
    LocalNodeLogic* local = system_->locals[i].get();
    if (local == nullptr) continue;
    Status st;
    local_busy_us_[i] += TimedUs([&] { return local->OnFinish(horizon); }, &st);
    DEMA_RETURN_NOT_OK(st);
  }
  return Pump();
}

Status SyncDriver::RunDisordered() {
  // Bounded-disorder mode: every node's stream is shuffled within
  // max_disorder_us of event time and watermarks are held back by the
  // allowed lateness. Chunked round-robin processing keeps nodes loosely in
  // step, as concurrent execution would.
  const WorkloadConfig& workload = workload_;
  const TimestampUs horizon =
      static_cast<TimestampUs>(workload.num_windows) * workload.window_len_us;

  std::vector<std::vector<Event>> streams;
  for (size_t i = 0; i < workload.generators.size(); ++i) {
    gen::DisorderedSource::Options opts;
    opts.max_disorder_us = workload.max_disorder_us;
    opts.seed = workload.generators[i].seed + 77'777;
    DEMA_ASSIGN_OR_RETURN(
        auto source, gen::DisorderedSource::Create(workload.generators[i], opts));
    streams.push_back(source->DeliverAll(horizon));
    if (record_events_) {
      for (const Event& e : streams.back()) {
        recorded_[static_cast<size_t>(e.timestamp / workload.window_len_us)]
            .push_back(e);
      }
    }
  }

  constexpr size_t kChunk = 512;
  std::vector<size_t> pos(streams.size(), 0);
  std::vector<TimestampUs> max_ts(streams.size(), 0);
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (size_t i = 0; i < streams.size(); ++i) {
      size_t end = std::min(streams[i].size(), pos[i] + kChunk);
      if (pos[i] >= end) continue;
      remaining = true;
      Status st;
      local_busy_us_[i] += TimedUs(
          [&]() -> Status {
            for (; pos[i] < end; ++pos[i]) {
              const Event& e = streams[i][pos[i]];
              max_ts[i] = std::max(max_ts[i], e.timestamp);
              DEMA_RETURN_NOT_OK(system_->locals[i]->OnEvent(e));
            }
            TimestampUs held_back =
                max_ts[i] > workload.allowed_lateness_us
                    ? max_ts[i] - workload.allowed_lateness_us
                    : 0;
            return system_->locals[i]->OnWatermark(held_back);
          },
          &st);
      DEMA_RETURN_NOT_OK(st);
    }
    DEMA_RETURN_NOT_OK(Pump());
  }
  for (const auto& stream : streams) events_ingested_ += stream.size();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Convenience runners
// ---------------------------------------------------------------------------

void BindRunObs(SystemConfig* config, RunMetrics* metrics) {
  metrics->registry = RunSink(&config->registry);
  metrics->tracer = RunSink(&config->tracer);
}

Result<RunMetrics> RunBuilt(
    const SystemConfig& system_config, const WorkloadConfig& workload,
    const SystemBuilder& build,
    const std::function<void(const net::Network&)>& inspect) {
  RealClock clock;
  SystemConfig config = system_config;
  RunMetrics metrics;
  BindRunObs(&config, &metrics);
  net::Network::Options net_options;
  net_options.registry = config.registry;
  net::Network network(&clock, net_options);
  DEMA_ASSIGN_OR_RETURN(System system, build(config, &network, &clock));
  WorkloadConfig load = workload;
  load.window_len_us = config.window_len_us;
  load.window_slide_us = config.window_slide_us;
  SyncDriver driver(&system, &network);
  auto wall_start = std::chrono::steady_clock::now();
  DEMA_RETURN_NOT_OK(driver.Run(load));
  auto wall_end = std::chrono::steady_clock::now();

  metrics.events_ingested = driver.events_ingested();
  metrics.windows_emitted = system.root->windows_emitted();
  metrics.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  metrics.throughput_eps =
      metrics.wall_seconds > 0
          ? static_cast<double>(metrics.events_ingested) / metrics.wall_seconds
          : 0;
  auto total = network.TotalStats();
  metrics.network_total = total.counters;
  metrics.simulated_transfer_us = total.simulated_transfer_us;
  metrics.by_type = network.StatsByType();
  metrics.root_busy_seconds = driver.root_busy_seconds();
  metrics.max_local_busy_seconds = driver.max_local_busy_seconds();
  double bottleneck_seconds =
      std::max(metrics.root_busy_seconds, metrics.max_local_busy_seconds);
  metrics.sim_throughput_eps =
      bottleneck_seconds > 0
          ? static_cast<double>(metrics.events_ingested) / bottleneck_seconds
          : 0;
  metrics.bottleneck =
      metrics.root_busy_seconds >= metrics.max_local_busy_seconds ? "root"
                                                                  : "local";
  if (inspect) inspect(network);
  return metrics;
}

Result<RunMetrics> RunSync(const SystemConfig& system_config,
                           const WorkloadConfig& workload) {
  return RunBuilt(system_config, workload, BuildSystem);
}

}  // namespace dema::sim
