#include "shard/sim_run.h"

#include "sim/pump.h"

namespace dema::shard {

Result<std::vector<std::unique_ptr<gen::StreamGenerator>>> MakeKeyGenerators(
    const KeyedWorkloadConfig& workload, uint64_t num_keys, NodeId id) {
  std::vector<std::unique_ptr<gen::StreamGenerator>> gens;
  gens.reserve(num_keys);
  for (net::KeyId key = 0; key < num_keys; ++key) {
    gen::GeneratorConfig cfg;
    cfg.node = id;
    cfg.seed = workload.seed_base + key * kKeySeedStride +
               static_cast<uint64_t>(id - 1) * 7919;
    cfg.distribution = workload.distribution;
    cfg.event_rate = workload.event_rate;
    DEMA_ASSIGN_OR_RETURN(auto g, gen::StreamGenerator::Create(cfg));
    gens.push_back(std::move(g));
  }
  return gens;
}

ShardedSimHarness::ShardedSimHarness(const ShardedConfig& config,
                                     net::Network::Options net_options)
    : config_(config), network_(&clock_, net_options) {
  init_status_ = ValidateShardedConfig(config_);
  if (!init_status_.ok()) return;

  init_status_ = network_.RegisterNode(/*id=*/0);
  if (!init_status_.ok()) return;
  service_ = std::make_unique<ShardedRootService>(config_, &network_, &clock_);
  init_status_ = service_->init_status();
  if (!init_status_.ok()) return;

  // The locals record into the service's registry.
  config_.registry = service_->registry();
  for (NodeId id : ShardLocalIds(config_)) {
    init_status_ = network_.RegisterNode(id);
    if (!init_status_.ok()) return;
    locals_.push_back(
        std::make_unique<KeyedLocalNode>(config_, id, &network_, &clock_));
  }
}

Status ShardedSimHarness::Run(const KeyedWorkloadConfig& workload) {
  DEMA_RETURN_NOT_OK(init_status_);

  std::vector<std::vector<std::unique_ptr<gen::StreamGenerator>>> gens;
  gens.reserve(locals_.size());
  for (NodeId id : ShardLocalIds(config_)) {
    DEMA_ASSIGN_OR_RETURN(auto local_gens,
                          MakeKeyGenerators(workload, config_.num_keys, id));
    gens.push_back(std::move(local_gens));
  }

  // Each key emits exactly `num_windows` outputs, so each vector is sized
  // once here instead of growing while its strand emits.
  outputs_by_key_.assign(config_.num_keys, {});
  for (auto& outputs : outputs_by_key_) outputs.reserve(workload.num_windows);
  // Strands publish concurrently, but always to distinct keys' (pre-sized)
  // vectors; one key's results stay on one strand, so no entry races.
  service_->SetKeyedResultCallback(
      [this](net::KeyId key, const sim::WindowOutput& out) {
        outputs_by_key_[key].push_back(out);
      });

  // The service drains first; its Quiesce is the strand barrier.
  std::vector<sim::PumpNode> nodes = {{0, service_.get()}};
  for (size_t i = 0; i < locals_.size(); ++i) {
    nodes.push_back({static_cast<NodeId>(i + 1), locals_[i].get()});
  }
  auto pump = [&] { return sim::PumpToQuiescence(&network_, nodes); };

  const bool deadlines = config_.recovery.deadline_ticks > 0;
  for (uint64_t w = 0; w < workload.num_windows; ++w) {
    const TimestampUs start =
        static_cast<TimestampUs>(w) * config_.window_len_us;
    const TimestampUs end = start + config_.window_len_us;
    for (size_t i = 0; i < locals_.size(); ++i) {
      for (net::KeyId key = 0; key < config_.num_keys; ++key) {
        std::vector<Event> events =
            gens[i][key]->GenerateWindow(start, config_.window_len_us);
        for (const Event& e : events) {
          DEMA_RETURN_NOT_OK(locals_[i]->OnEvent(key, e));
        }
        events_ingested_ += events.size();
      }
    }
    for (auto& local : locals_) {
      DEMA_RETURN_NOT_OK(local->OnWatermark(end));
    }
    DEMA_RETURN_NOT_OK(pump());
    if (deadlines) {
      DEMA_RETURN_NOT_OK(service_->Tick());
      DEMA_RETURN_NOT_OK(pump());
    }
  }

  const TimestampUs final_ts =
      static_cast<TimestampUs>(workload.num_windows) * config_.window_len_us;
  for (auto& local : locals_) {
    DEMA_RETURN_NOT_OK(local->OnFinish(final_ts));
  }
  DEMA_RETURN_NOT_OK(pump());
  if (deadlines) {
    service_->NoteWindowHorizon(workload.num_windows - 1);
    // Burn through the retry/degrade budget so faulty runs terminate.
    for (uint64_t t = 0; t < config_.recovery.DrainTicks(); ++t) {
      DEMA_RETURN_NOT_OK(service_->Tick());
      DEMA_RETURN_NOT_OK(pump());
      if (service_->idle()) break;
    }
  }

  const uint64_t expected = workload.num_windows * config_.num_keys;
  if (service_->windows_emitted() != expected) {
    return Status::Internal(
        "service emitted " + std::to_string(service_->windows_emitted()) +
        " per-key windows, expected " + std::to_string(expected));
  }
  if (!service_->idle()) {
    return Status::Internal("service still has pending windows after run");
  }
  return Status::OK();
}

}  // namespace dema::shard
