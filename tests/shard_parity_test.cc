// Multi-key parity: a K-key sharded run must produce byte-identical per-key
// quantiles to K independent single-key runs with the same seeds. This is
// the sharding layer's core correctness property — batching, demuxing, and
// strand scheduling must never change what any key computes.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/network.h"
#include "shard/config.h"
#include "shard/sim_run.h"
#include "sim/tick/topology.h"
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

/// Single-key baseline for key `key`: the plain unsharded Dema pipeline on
/// the same fabric, seeded with the sharded run's per-key seed base.
std::vector<sim::WindowOutput> BaselineForKey(const shard::ShardedConfig& sc,
                                              net::KeyId key,
                                              uint64_t num_windows,
                                              double event_rate,
                                              uint64_t seed_base) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = sc.num_locals;
  config.window_len_us = sc.window_len_us;
  config.quantiles = sc.quantiles;
  config.gamma = sc.gamma;
  config.adaptive_gamma = sc.adaptive_gamma;
  config.wire_codec = sc.wire_codec;
  config.recovery = sc.recovery;

  RealClock clock;
  net::Network network(&clock);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  EXPECT_TRUE(system_result.ok()) << system_result.status();
  sim::System system = std::move(system_result).MoveValueUnsafe();

  sim::WorkloadConfig workload = sim::MakeUniformWorkload(
      config.num_locals, num_windows, event_rate, TestDistribution(), {},
      seed_base + key * shard::kKeySeedStride);
  workload.window_len_us = config.window_len_us;

  sim::SyncDriver driver(&system, &network);
  Status st = driver.Run(workload);
  EXPECT_TRUE(st.ok()) << st;
  return driver.outputs();
}

/// Asserts the sharded run's per-key outputs match the per-key baselines
/// exactly (values bit-for-bit; latency is timing, not compared).
void ExpectKeyParity(const shard::ShardedConfig& sc,
                     const shard::ShardedSimHarness& harness,
                     uint64_t num_windows, double event_rate,
                     uint64_t seed_base) {
  const auto& by_key = harness.outputs_by_key();
  ASSERT_EQ(by_key.size(), sc.num_keys);
  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    std::vector<sim::WindowOutput> baseline =
        BaselineForKey(sc, key, num_windows, event_rate, seed_base);
    ASSERT_EQ(by_key[key].size(), baseline.size()) << "key " << key;
    for (size_t w = 0; w < baseline.size(); ++w) {
      const sim::WindowOutput& got = by_key[key][w];
      const sim::WindowOutput& want = baseline[w];
      EXPECT_EQ(got.window_id, want.window_id) << "key " << key;
      EXPECT_EQ(got.global_size, want.global_size)
          << "key " << key << " window " << w;
      EXPECT_EQ(got.degraded, want.degraded) << "key " << key;
      ASSERT_EQ(got.values.size(), want.values.size()) << "key " << key;
      for (size_t q = 0; q < want.values.size(); ++q) {
        EXPECT_EQ(got.values[q], want.values[q])
            << "key " << key << " window " << w << " quantile " << q
            << " must be byte-identical to the single-key run";
      }
    }
  }
}

TEST(ShardParity, MultiKeyMatchesIndependentSingleKeyRuns) {
  shard::ShardedConfig sc;
  sc.num_locals = 3;
  sc.num_shards = 4;
  sc.num_keys = 11;  // not a multiple of shards: exercises uneven ownership
  sc.workers = 2;
  sc.quantiles = {0.25, 0.5, 0.95};
  sc.gamma = 64;

  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();

  shard::KeyedWorkloadConfig load;
  load.num_windows = 4;
  load.event_rate = 600;
  load.distribution = TestDistribution();
  load.seed_base = 4242;
  Status st = harness.Run(load);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(harness.service()->windows_emitted(),
            load.num_windows * sc.num_keys);

  ExpectKeyParity(sc, harness, load.num_windows, load.event_rate,
                  load.seed_base);
}

TEST(ShardParity, SingleShardSingleWorkerAlsoMatches) {
  // Degenerate deployment: 1 shard, 1 worker — the strand machinery must be
  // a no-op for correctness.
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 1;
  sc.num_keys = 3;
  sc.workers = 1;
  sc.quantiles = {0.5};

  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();
  shard::KeyedWorkloadConfig load;
  load.num_windows = 3;
  load.event_rate = 500;
  load.distribution = TestDistribution();
  load.seed_base = 77;
  Status st = harness.Run(load);
  ASSERT_TRUE(st.ok()) << st;
  ExpectKeyParity(sc, harness, load.num_windows, load.event_rate,
                  load.seed_base);
}

TEST(ShardParity, DeadlinesEnabledStillExact) {
  // With the PR 4 deadline machinery armed on every per-key root, a healthy
  // fabric must still produce exact, non-degraded parity.
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 2;
  sc.num_keys = 5;
  sc.workers = 2;
  sc.quantiles = {0.5, 0.9};
  sc.recovery.deadline_ticks = 4;

  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();
  shard::KeyedWorkloadConfig load;
  load.num_windows = 3;
  load.event_rate = 400;
  load.distribution = TestDistribution();
  load.seed_base = 910;
  Status st = harness.Run(load);
  ASSERT_TRUE(st.ok()) << st;
  for (const auto& outputs : harness.outputs_by_key()) {
    for (const auto& out : outputs) {
      EXPECT_FALSE(out.degraded);
    }
  }
  ExpectKeyParity(sc, harness, load.num_windows, load.event_rate,
                  load.seed_base);
}

TEST(ShardParity, LossyFabricWithDeadlinesDegradesInsteadOfStalling) {
  // A lossy fabric loses whole protocol steps of some key-windows. With
  // deadlines on, the harness must tick long enough for every lost window to
  // exhaust its retry backoff and degrade: the run completes, and every
  // window is either exact or explicitly degraded with a cause.
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 2;
  sc.num_keys = 20;
  sc.workers = 2;
  sc.quantiles = {0.5, 0.9};
  sc.recovery.deadline_ticks = 4;
  sc.recovery.max_retries = 3;
  shard::KeyedWorkloadConfig load;
  load.num_windows = 4;
  load.event_rate = 400;
  load.distribution = TestDistribution();
  load.seed_base = 515;

  shard::ShardedSimHarness clean(sc);
  ASSERT_TRUE(clean.init_status().ok()) << clean.init_status();
  Status st = clean.Run(load);
  ASSERT_TRUE(st.ok()) << st;
  std::map<std::pair<net::KeyId, net::WindowId>, sim::WindowOutput> exact;
  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    for (const sim::WindowOutput& out : clean.outputs_by_key()[key]) {
      exact.emplace(std::make_pair(key, out.window_id), out);
    }
  }

  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    net::Network::Options lossy;
    lossy.drop_prob = 0.2;
    lossy.fault_seed = seed;
    shard::ShardedSimHarness harness(sc, lossy);
    ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();
    st = harness.Run(load);
    ASSERT_TRUE(st.ok()) << st;
    ASSERT_EQ(harness.outputs_by_key().size(), sc.num_keys);
    for (net::KeyId key = 0; key < sc.num_keys; ++key) {
      const auto& outputs = harness.outputs_by_key()[key];
      EXPECT_EQ(outputs.size(), load.num_windows) << "key " << key;
      for (const sim::WindowOutput& out : outputs) {
        if (out.degraded) {
          EXPECT_FALSE(out.degrade_cause.empty())
              << "key " << key << " window " << out.window_id;
          continue;
        }
        auto want = exact.find({key, out.window_id});
        ASSERT_NE(want, exact.end())
            << "key " << key << " window " << out.window_id;
        EXPECT_EQ(out.global_size, want->second.global_size);
        EXPECT_EQ(out.values, want->second.values)
            << "key " << key << " window " << out.window_id
            << " is neither degraded nor exact";
      }
    }
  }
}

TEST(ShardParity, QueryStoreServesLatestWindowPerKey) {
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 2;
  sc.num_keys = 6;
  sc.workers = 2;
  sc.quantiles = {0.5, 0.9};

  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();
  shard::KeyedWorkloadConfig load;
  load.num_windows = 3;
  load.event_rate = 500;
  load.distribution = TestDistribution();
  load.seed_base = 5150;
  ASSERT_TRUE(harness.Run(load).ok());

  net::KeyedQuery query;
  query.query_id = 9;
  for (net::KeyId key = 0; key < sc.num_keys; ++key) query.keys.push_back(key);
  net::KeyedQueryReply reply = harness.service()->Query(query);
  ASSERT_TRUE(reply.error.empty()) << reply.error;
  EXPECT_EQ(reply.query_id, 9u);
  EXPECT_EQ(reply.quantiles, sc.quantiles);
  ASSERT_EQ(reply.answers.size(), sc.num_keys);
  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    const net::KeyedAnswer& a = reply.answers[key];
    EXPECT_EQ(a.key, key);
    ASSERT_TRUE(a.found);
    EXPECT_EQ(a.window_id, load.num_windows - 1) << "latest window per key";
    const auto& last = harness.outputs_by_key()[key].back();
    EXPECT_EQ(a.global_size, last.global_size);
    ASSERT_EQ(a.values.size(), last.values.size());
    for (size_t q = 0; q < a.values.size(); ++q) {
      EXPECT_EQ(a.values[q], last.values[q]);
    }
  }

  // Quantile subset + rejection paths.
  net::KeyedQuery subset;
  subset.keys = {0};
  subset.quantiles = {0.9};
  net::KeyedQueryReply sub_reply = harness.service()->Query(subset);
  ASSERT_TRUE(sub_reply.error.empty()) << sub_reply.error;
  ASSERT_EQ(sub_reply.answers.size(), 1u);
  ASSERT_EQ(sub_reply.answers[0].values.size(), 1u);
  EXPECT_EQ(sub_reply.answers[0].values[0],
            harness.outputs_by_key()[0].back().values[1]);

  net::KeyedQuery bad_key;
  bad_key.keys = {sc.num_keys + 5};
  EXPECT_FALSE(harness.service()->Query(bad_key).error.empty());

  net::KeyedQuery bad_q;
  bad_q.keys = {0};
  bad_q.quantiles = {0.123456};  // not configured
  EXPECT_FALSE(harness.service()->Query(bad_q).error.empty());
}

enum class KeyedFabric { kDelayedInline, kEvent, kEventStar };

class KeyedHarnessDelivery : public ::testing::TestWithParam<KeyedFabric> {};

TEST_P(KeyedHarnessDelivery, EveryKeyMatchesPlainInlineRun) {
  // The harness drains through the shared pump, so a fabric that holds
  // messages back (delayed inline delivery, event-driven hops, routed hops)
  // still completes every key's windows, with the plain inline results.
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 2;
  sc.num_keys = 16;
  sc.workers = 2;
  sc.quantiles = {0.5, 0.9};
  sc.gamma = 32;
  shard::KeyedWorkloadConfig load;
  load.num_windows = 3;
  load.event_rate = 400;
  load.distribution = TestDistribution();
  load.seed_base = 808;

  shard::ShardedSimHarness plain(sc);
  ASSERT_TRUE(plain.init_status().ok()) << plain.init_status();
  ASSERT_TRUE(plain.Run(load).ok());

  net::Network::Options options;
  switch (GetParam()) {
    case KeyedFabric::kDelayedInline:
      options.delay_us_max = 500;
      options.fault_seed = 7;
      break;
    case KeyedFabric::kEventStar: {
      auto star = tick::Topology::Build("star", sc.num_locals + 1);
      ASSERT_TRUE(star.ok()) << star.status();
      options.topology = *star;
      [[fallthrough]];
    }
    case KeyedFabric::kEvent:
      options.delivery = net::Network::DeliveryMode::kEvent;
      break;
  }
  shard::ShardedSimHarness harness(sc, options);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();
  Status st = harness.Run(load);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(harness.network()->pending_events(), 0u);
  EXPECT_EQ(harness.network()->delayed_in_flight(), 0u);

  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    const auto& got = harness.outputs_by_key()[key];
    const auto& want = plain.outputs_by_key()[key];
    ASSERT_EQ(got.size(), load.num_windows) << "key " << key;
    ASSERT_EQ(want.size(), load.num_windows) << "key " << key;
    for (size_t w = 0; w < want.size(); ++w) {
      EXPECT_EQ(got[w].window_id, want[w].window_id) << "key " << key;
      EXPECT_EQ(got[w].global_size, want[w].global_size) << "key " << key;
      EXPECT_EQ(got[w].values, want[w].values)
          << "key " << key << " window " << w;
      EXPECT_FALSE(got[w].degraded) << "key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, KeyedHarnessDelivery,
    ::testing::Values(KeyedFabric::kDelayedInline, KeyedFabric::kEvent,
                      KeyedFabric::kEventStar),
    [](const ::testing::TestParamInfo<KeyedFabric>& info) {
      switch (info.param) {
        case KeyedFabric::kDelayedInline:
          return std::string("DelayedInline");
        case KeyedFabric::kEvent:
          return std::string("Event");
        case KeyedFabric::kEventStar:
          return std::string("EventStar");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace dema
