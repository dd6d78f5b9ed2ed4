#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "gen/generator.h"
#include "net/network.h"
#include "shard/config.h"
#include "shard/local_mux.h"
#include "shard/service.h"

namespace dema::shard {

/// Seed stride between adjacent keys (see `MakeKeyGenerators`).
inline constexpr uint64_t kKeySeedStride = 1'000'003;

/// \brief Workload of a keyed sim run: every (key, local) pair runs its own
/// deterministic generator, all with the same distribution and rate.
struct KeyedWorkloadConfig {
  /// Tumbling windows of event time to generate.
  uint64_t num_windows = 10;
  /// Events per second of event time, per (key, local) stream.
  double event_rate = 1000.0;
  gen::DistributionParams distribution;
  uint64_t seed_base = 1000;
};

/// \brief One generator per key for keyed local \p id (1-based). Key k's is
/// seeded `seed_base + k * kKeySeedStride + (id - 1) * 7919`, exactly what
/// `MakeUniformWorkload(..., seed_base + k * kKeySeedStride)` gives local
/// \p id in a single-key run, so every key has a plain single-key baseline
/// (the parity tests depend on this identity).
Result<std::vector<std::unique_ptr<gen::StreamGenerator>>> MakeKeyGenerators(
    const KeyedWorkloadConfig& workload, uint64_t num_keys, NodeId id);

/// \brief In-process sharded deployment on the simulation fabric: the shard
/// service as node 0 plus N keyed local nodes, driven synchronously.
///
/// The driver mirrors `SyncDriver` — generate one window per (key, local),
/// watermark, then `sim::PumpToQuiescence` over the service and the locals,
/// on any delivery mode of the fabric. The pump's per-node `Quiesce` is the
/// service's strand barrier: every strand drains before the local inboxes
/// are examined, so executor-backed runs produce the same per-key message
/// sequences as a single-threaded run.
class ShardedSimHarness {
 public:
  /// \p net_options configures fault injection on the fabric (tamper, drops,
  /// ...); the service/local nodes are built and registered immediately.
  explicit ShardedSimHarness(const ShardedConfig& config,
                             net::Network::Options net_options = {});

  /// Construction-time validation/registration result; `Run` fails while
  /// this is not OK.
  const Status& init_status() const { return init_status_; }

  /// Runs the whole workload; fails on the first node error. On success
  /// every key emitted exactly `workload.num_windows` windows and the
  /// service is idle.
  Status Run(const KeyedWorkloadConfig& workload);

  /// Emitted outputs per key, in emission order (index = key id).
  const std::vector<std::vector<sim::WindowOutput>>& outputs_by_key() const {
    return outputs_by_key_;
  }

  uint64_t events_ingested() const { return events_ingested_; }

  net::Network* network() { return &network_; }
  ShardedRootService* service() { return service_.get(); }
  KeyedLocalNode* local(size_t i) { return locals_[i].get(); }
  obs::Registry* registry() { return service_->registry(); }

 private:
  ShardedConfig config_;
  RealClock clock_;
  net::Network network_;
  Status init_status_;
  std::unique_ptr<ShardedRootService> service_;
  std::vector<std::unique_ptr<KeyedLocalNode>> locals_;
  std::vector<std::vector<sim::WindowOutput>> outputs_by_key_;
  uint64_t events_ingested_ = 0;
};

}  // namespace dema::shard
