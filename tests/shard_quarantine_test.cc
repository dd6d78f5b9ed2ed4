// Shard-aware quarantine: a tampering local's corruption lands in exactly
// one key's entry per keyed frame (the fabric flips the first entry's
// declared node id, CRC stays valid). The affected per-key roots must strike
// and quarantine the local under their own shard's `{shard=S}` instruments,
// while every other key — including keys sharing the very same frames and
// keys on other shards — keeps emitting byte-identical exact results.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/clock.h"
#include "net/network.h"
#include "obs/registry.h"
#include "shard/config.h"
#include "shard/key.h"
#include "shard/sim_run.h"
#include "sim/driver.h"
#include "sim/topology.h"

namespace dema {
namespace {

gen::DistributionParams TestDistribution() {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 1000;
  dist.stddev = 5;
  return dist;
}

std::vector<sim::WindowOutput> BaselineForKey(const shard::ShardedConfig& sc,
                                              net::KeyId key,
                                              const shard::KeyedWorkloadConfig& load) {
  sim::SystemConfig config;
  config.num_locals = sc.num_locals;
  config.window_len_us = sc.window_len_us;
  config.quantiles = sc.quantiles;
  config.gamma = sc.gamma;
  // Baseline runs on an honest fabric: no quarantine knobs needed.
  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  EXPECT_TRUE(system_result.ok()) << system_result.status();
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::WorkloadConfig workload = sim::MakeUniformWorkload(
      config.num_locals, load.num_windows, load.event_rate, load.distribution,
      {}, load.seed_base + key * shard::kKeySeedStride);
  workload.window_len_us = config.window_len_us;
  sim::SyncDriver driver(&system, &network);
  Status st = driver.Run(workload);
  EXPECT_TRUE(st.ok()) << st;
  return driver.outputs();
}

/// True when `outputs` is bit-for-bit the honest single-key run: same
/// windows, same sizes, same values, never degraded, zero rank error.
bool MatchesBaseline(const std::vector<sim::WindowOutput>& outputs,
                     const std::vector<sim::WindowOutput>& baseline) {
  if (outputs.size() != baseline.size()) return false;
  for (size_t w = 0; w < baseline.size(); ++w) {
    const auto& got = outputs[w];
    const auto& want = baseline[w];
    if (got.window_id != want.window_id) return false;
    if (got.global_size != want.global_size) return false;
    if (got.degraded || got.rank_error_bound != 0) return false;
    if (got.values != want.values) return false;
  }
  return true;
}

TEST(ShardQuarantine, TamperedKeyStruckPerShardOthersStayExact) {
  shard::ShardedConfig sc;
  sc.num_locals = 3;
  sc.num_shards = 4;
  sc.num_keys = 16;
  sc.workers = 2;
  sc.quantiles = {0.5};
  sc.gamma = 32;
  sc.recovery.quarantine_strikes = 1;  // first bad payload quarantines

  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();

  const NodeId tamperer = 2;
  harness.network()->SetNodeTamper(tamperer, true);

  shard::KeyedWorkloadConfig load;
  load.num_windows = 3;
  load.event_rate = 500;
  load.distribution = TestDistribution();
  load.seed_base = 31337;
  Status st = harness.Run(load);
  ASSERT_TRUE(st.ok()) << st;
  // Quarantine sweeps pending windows, so every key still emits every
  // window (victims emit best-effort results excluding the tamperer).
  EXPECT_EQ(harness.service()->windows_emitted(),
            load.num_windows * sc.num_keys);

  // The deterministic synopsis victim of shard s is its lowest-owned key:
  // the local batches per-shard frames in ascending key order and the
  // fabric tampers each frame's first entry.
  std::vector<net::KeyId> synopsis_victim(sc.num_shards, ~0ull);
  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    uint32_t s = shard::ShardOfKey(key, sc.num_shards);
    if (synopsis_victim[s] == ~0ull) synopsis_victim[s] = key;
  }

  obs::Registry* reg = harness.registry();
  std::vector<std::set<net::KeyId>> affected(sc.num_shards);
  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    auto baseline = BaselineForKey(sc, key, load);
    if (!MatchesBaseline(harness.outputs_by_key()[key], baseline)) {
      affected[shard::ShardOfKey(key, sc.num_shards)].insert(key);
    }
  }

  for (uint32_t s = 0; s < sc.num_shards; ++s) {
    const std::string label = "{" + shard::ShardLabel(s) + "}";
    // Every shard struck and quarantined the tamperer under its own label.
    const obs::Counter* rejected = reg->FindCounter("dema.rejected" + label);
    ASSERT_NE(rejected, nullptr) << "shard " << s;
    EXPECT_GE(rejected->Value(), 1u) << "shard " << s;
    const obs::Counter* quarantined =
        reg->FindCounter("dema.quarantined" + label);
    ASSERT_NE(quarantined, nullptr) << "shard " << s;
    EXPECT_GE(quarantined->Value(), 1u) << "shard " << s;

    // The synopsis victim is always hit...
    EXPECT_TRUE(affected[s].count(synopsis_victim[s]))
        << "shard " << s << " lowest key " << synopsis_victim[s]
        << " should have lost the tamperer's contribution";
    // ...and the blast radius is bounded: one synopsis victim plus at most
    // one candidate-reply victim per window. Everything else is exact.
    EXPECT_LE(affected[s].size(), 1 + load.num_windows)
        << "shard " << s << " quarantine leaked across keys";
  }

  // Per-shard isolation of the instruments themselves: strikes recorded
  // under one shard's label never bleed into another registry family.
  uint64_t total_quarantines = 0;
  for (uint32_t s = 0; s < sc.num_shards; ++s) {
    const obs::Counter* c =
        reg->FindCounter("dema.quarantined{" + shard::ShardLabel(s) + "}");
    if (c != nullptr) total_quarantines += c->Value();
  }
  uint64_t total_affected = 0;
  for (const auto& keys : affected) total_affected += keys.size();
  EXPECT_GE(total_quarantines, total_affected)
      << "every affected key's root must have quarantined the tamperer";
}

TEST(ShardQuarantine, HonestFabricHasNoStrikes) {
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 2;
  sc.num_keys = 4;
  sc.workers = 2;
  sc.recovery.quarantine_strikes = 2;

  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();
  shard::KeyedWorkloadConfig load;
  load.num_windows = 2;
  load.event_rate = 300;
  load.distribution = TestDistribution();
  ASSERT_TRUE(harness.Run(load).ok());

  for (uint32_t s = 0; s < sc.num_shards; ++s) {
    const std::string label = "{" + shard::ShardLabel(s) + "}";
    const obs::Counter* rejected =
        harness.registry()->FindCounter("dema.rejected" + label);
    if (rejected != nullptr) {
      EXPECT_EQ(rejected->Value(), 0u);
    }
    const obs::Counter* quarantined =
        harness.registry()->FindCounter("dema.quarantined" + label);
    if (quarantined != nullptr) {
      EXPECT_EQ(quarantined->Value(), 0u);
    }
  }
}

}  // namespace
}  // namespace dema
