// Scale and concurrency tests for the sharded root service: a 10k-key run
// across 4 shards must match 10k independent single-key runs exactly, and
// the query API must answer concurrent multi-key reads while windows close.
// Also: a malformed keyed frame is dropped whole, a keyed local's
// retained-memory gauges sum over all of its keys, and a keyed local counts
// the duplicate frames it drops.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "dema/protocol.h"
#include "dema/slice.h"
#include "net/keyed.h"
#include "net/network.h"
#include "shard/config.h"
#include "shard/key.h"
#include "shard/local_mux.h"
#include "shard/result_store.h"
#include "shard/root_shard.h"
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

TEST(ResultStore, OutOfOrderPublishKeepsNewestWindow) {
  // Windows complete out of order when an older window's candidate round is
  // still in flight while a newer one needs fewer locals. The store must
  // never let the late, older result clobber the newer one (regression: a
  // query would then report the key stuck at the old window forever).
  shard::ResultStore store(/*num_shards=*/2, /*num_keys=*/4, {0.5});
  const net::KeyId key = 3;
  const uint32_t s = shard::ShardOfKey(key, 2);

  sim::WindowOutput w1;
  w1.window_id = 1;
  w1.global_size = 400;
  w1.values = {42.0};
  store.Publish(s, key, w1);

  sim::WindowOutput w0;
  w0.window_id = 0;
  w0.global_size = 300;
  w0.values = {17.0};
  store.Publish(s, key, w0);  // late arrival of the older window

  auto latest = store.Latest(key);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->window_id, 1u);
  EXPECT_EQ(latest->global_size, 400u);
  EXPECT_EQ(latest->values, std::vector<double>{42.0});
  EXPECT_EQ(store.published_windows(), 2u);

  net::KeyedQuery query;
  query.query_id = 9;
  query.keys = {key};
  net::KeyedQueryReply reply = store.Query(query);
  ASSERT_TRUE(reply.error.empty()) << reply.error;
  ASSERT_EQ(reply.answers.size(), 1u);
  EXPECT_EQ(reply.answers[0].window_id, 1u);
}

TEST(ShardScale, TenThousandKeysAcrossFourShardsMatchSingleKeyRuns) {
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 4;
  sc.num_keys = 10'000;
  sc.workers = 4;
  sc.quantiles = {0.5};
  sc.gamma = 16;

  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();

  shard::KeyedWorkloadConfig load;
  load.num_windows = 1;
  load.event_rate = 50;  // small per-key streams: 10k keys is the point
  load.distribution = TestDistribution();
  load.seed_base = 60000;
  Status st = harness.Run(load);
  ASSERT_TRUE(st.ok()) << st;
  ASSERT_EQ(harness.service()->windows_emitted(), sc.num_keys);

  // Baseline config: the identical single-key pipeline.
  sim::SystemConfig base;
  base.num_locals = sc.num_locals;
  base.window_len_us = sc.window_len_us;
  base.quantiles = sc.quantiles;
  base.gamma = sc.gamma;

  uint64_t mismatches = 0;
  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    RealClock clock;
    net::Network network(&clock);
    auto system_result = sim::BuildSystem(base, &network, &clock);
    ASSERT_TRUE(system_result.ok()) << system_result.status();
    sim::System system = std::move(system_result).MoveValueUnsafe();
    sim::WorkloadConfig workload = sim::MakeUniformWorkload(
        base.num_locals, load.num_windows, load.event_rate,
        load.distribution, {}, load.seed_base + key * shard::kKeySeedStride);
    workload.window_len_us = base.window_len_us;
    sim::SyncDriver driver(&system, &network);
    ASSERT_TRUE(driver.Run(workload).ok()) << "key " << key;

    const auto& got = harness.outputs_by_key()[key];
    const auto& want = driver.outputs();
    ASSERT_EQ(got.size(), want.size()) << "key " << key;
    for (size_t w = 0; w < want.size(); ++w) {
      if (got[w].global_size != want[w].global_size ||
          got[w].values != want[w].values || got[w].degraded) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << "sharded run diverged from independent single-key runs";

  // All four shards actually own keys (the mixer spreads a dense universe).
  for (uint32_t s = 0; s < sc.num_shards; ++s) {
    uint64_t owned = 0;
    for (net::KeyId key = 0; key < sc.num_keys; ++key) {
      if (shard::ShardOfKey(key, sc.num_shards) == s) ++owned;
    }
    EXPECT_GT(owned, sc.num_keys / sc.num_shards / 2) << "shard " << s;
  }
}

TEST(ShardConcurrent, QueriesRaceWindowCloseAndStaySnapshotConsistent) {
  constexpr uint64_t kKeys = 128;  // >= 100 concurrently queried keys
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 4;
  sc.num_keys = kKeys;
  sc.workers = 4;
  sc.quantiles = {0.5, 0.9};
  sc.gamma = 16;

  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();

  shard::KeyedWorkloadConfig load;
  load.num_windows = 6;
  load.event_rate = 400;
  load.distribution = TestDistribution();
  load.seed_base = 2026;

  // Query threads hammer the service for all keys while the driver closes
  // windows underneath them. Every reply must be internally consistent:
  // resolved quantiles, per-key window ids that never move backwards, and
  // value vectors matching the resolved quantile count.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> violations{0};
  constexpr size_t kThreads = 4;
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<net::WindowId> last_window(kKeys, 0);
      std::vector<bool> seen(kKeys, false);
      net::KeyedQuery query;
      query.query_id = t;
      for (net::KeyId key = 0; key < kKeys; ++key) query.keys.push_back(key);
      while (!stop.load(std::memory_order_relaxed)) {
        net::KeyedQueryReply reply = harness.service()->Query(query);
        queries.fetch_add(1, std::memory_order_relaxed);
        if (!reply.error.empty() || reply.answers.size() != kKeys ||
            reply.quantiles != sc.quantiles) {
          violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t i = 0; i < reply.answers.size(); ++i) {
          const net::KeyedAnswer& a = reply.answers[i];
          if (a.key != query.keys[i]) {
            violations.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (!a.found) continue;  // key has not emitted yet: fine early on
          if (a.values.size() != sc.quantiles.size() || a.degraded ||
              (seen[a.key] && a.window_id < last_window[a.key])) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          seen[a.key] = true;
          last_window[a.key] = a.window_id;
        }
      }
    });
  }

  Status st = harness.Run(load);
  stop.store(true);
  for (auto& th : readers) th.join();
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  // After the run, one final query per key matches the emitted outputs.
  net::KeyedQuery final_query;
  for (net::KeyId key = 0; key < kKeys; ++key) final_query.keys.push_back(key);
  net::KeyedQueryReply reply = harness.service()->Query(final_query);
  ASSERT_TRUE(reply.error.empty()) << reply.error;
  ASSERT_EQ(reply.answers.size(), kKeys);
  for (net::KeyId key = 0; key < kKeys; ++key) {
    const net::KeyedAnswer& a = reply.answers[key];
    ASSERT_TRUE(a.found) << "key " << key;
    EXPECT_EQ(a.window_id, load.num_windows - 1);
    const auto& last = harness.outputs_by_key()[key].back();
    EXPECT_EQ(a.global_size, last.global_size);
    EXPECT_EQ(a.values, last.values);
  }
}

/// Keeps every frame sent through it.
class FrameSink final : public transport::Transport {
 public:
  Status Send(net::Message m) override {
    frames.push_back(std::move(m));
    return Status::OK();
  }
  net::Channel* Inbox(NodeId) override { return nullptr; }
  transport::LinkTrafficMap LinkTraffic() const override { return {}; }
  std::map<net::MessageType, net::TrafficCounters> TrafficByType()
      const override {
    return {};
  }
  void Shutdown() override {}

  std::vector<net::Message> frames;
};

TEST(ShardMalformedFrame, TruncatedLastEntryAppliesNothing) {
  // One local, so every accepted synopsis runs identification at once and
  // sends a candidate request: a half-applied frame would be visible.
  shard::ShardedConfig config;
  config.num_locals = 1;
  config.num_shards = 1;
  config.num_keys = 4;
  config.gamma = 16;
  obs::Registry registry;
  RealClock clock;
  FrameSink transport;
  uint64_t emitted = 0;
  shard::RootShard shard(0, config, &transport, &clock, &registry,
                         [&emitted](net::KeyId, const sim::WindowOutput&) {
                           ++emitted;
                         });

  net::KeyedBatchWriter batch(0);
  for (net::KeyId key = 0; key < config.num_keys; ++key) {
    std::vector<Event> events;
    for (uint32_t i = 0; i < 3; ++i) {
      events.push_back(Event{static_cast<double>(key * 10 + i),
                             static_cast<TimestampUs>(i), 1, i});
    }
    core::SynopsisBatch synopsis;
    synopsis.window_id = 0;
    synopsis.node = 1;
    synopsis.local_window_size = events.size();
    synopsis.gamma_used = 16;
    synopsis.slices = *core::CutIntoSlices(events, 1, 16);
    batch.Add(key, synopsis);
  }
  const net::Message intact =
      batch.Finish(net::MessageType::kShardSynopsisBatch, 1, 0);
  net::Message truncated = intact;
  truncated.payload.resize(truncated.payload.size() - 3);

  ASSERT_TRUE(shard.OnFrame(truncated).ok());
  EXPECT_EQ(registry.FindCounter("shard.bad_frame{shard=0}")->Value(), 1u);
  EXPECT_TRUE(transport.frames.empty()) << "no key may send a request";
  EXPECT_TRUE(shard.idle()) << "no key may hold a pending window";
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(registry.FindCounter("dema.synopsis_slices{shard=0}")->Value(), 0u);

  // Every key's state is untouched: the intact frame is each key's first
  // synopsis, and every key asks for its candidates in one request frame.
  ASSERT_TRUE(shard.OnFrame(intact).ok());
  EXPECT_EQ(registry.FindCounter("shard.bad_frame{shard=0}")->Value(), 1u);
  EXPECT_EQ(registry.FindCounter("dema.duplicates_ignored{shard=0}")->Value(),
            0u);
  ASSERT_EQ(transport.frames.size(), 1u);
  EXPECT_EQ(transport.frames[0].type, net::MessageType::kShardCandidateRequest);
  auto requests = net::KeyedBatchReader::Open(transport.frames[0].payload_bytes());
  ASSERT_TRUE(requests.ok()) << requests.status();
  EXPECT_EQ(requests->size(), config.num_keys);
}

TEST(ShardLocalGauges, RetainedGaugesSumOverKeys) {
  // All of a keyed node's per-key locals share `local.retained_*{node=N}`;
  // the gauges must read the node's total, not the last key's count.
  constexpr uint64_t kKeys = 8;
  // More events than the tiny-window rule ships complete, so every key's
  // window is retained.
  constexpr uint32_t kEvents = 16;
  obs::Registry registry;
  RealClock clock;
  FrameSink transport;
  shard::ShardedConfig config;
  config.num_shards = 2;
  config.num_keys = kKeys;
  config.registry = &registry;
  shard::KeyedLocalNode node(config, /*id=*/1, &transport, &clock);
  for (net::KeyId key = 0; key < kKeys; ++key) {
    for (uint32_t i = 0; i < kEvents; ++i) {
      ASSERT_TRUE(node.OnEvent(key, Event{static_cast<double>(i),
                                          static_cast<TimestampUs>(i), 1, i})
                      .ok());
    }
  }
  ASSERT_TRUE(node.OnWatermark(config.window_len_us).ok());
  const obs::Gauge* windows = registry.FindGauge("local.retained_windows{node=1}");
  const obs::Gauge* events = registry.FindGauge("local.retained_events{node=1}");
  const obs::Gauge* peak =
      registry.FindGauge("local.retained_events_peak{node=1}");
  ASSERT_NE(windows, nullptr);
  ASSERT_NE(events, nullptr);
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(windows->Value(), static_cast<int64_t>(kKeys));
  EXPECT_EQ(events->Value(), static_cast<int64_t>(kKeys * kEvents));
  EXPECT_EQ(peak->Value(), static_cast<int64_t>(kKeys * kEvents));

  // Releasing one key's window takes exactly its events out; the peak stays.
  net::KeyedBatchWriter release(shard::ShardOfKey(0, config.num_shards));
  core::CandidateRequest req;
  req.window_id = 0;
  release.Add(0, req);
  ASSERT_TRUE(
      node.OnMessage(release.Finish(net::MessageType::kShardCandidateRequest,
                                    0, 1))
          .ok());
  EXPECT_EQ(windows->Value(), static_cast<int64_t>(kKeys - 1));
  EXPECT_EQ(events->Value(), static_cast<int64_t>((kKeys - 1) * kEvents));
  EXPECT_EQ(peak->Value(), static_cast<int64_t>(kKeys * kEvents));
}

TEST(ShardLocalDedup, DuplicateFrameIsCountedAndServedOnce) {
  // A transport retransmission repeats a frame with its sequence number: the
  // keyed local must drop the copy once per frame, count it like a
  // single-key local does, and never serve the keys a second time.
  constexpr uint64_t kKeys = 4;
  // More events than the tiny-window rule ships complete, so every key's
  // window is retained and served.
  constexpr uint32_t kEvents = 16;
  obs::Registry registry;
  RealClock clock;
  FrameSink transport;
  shard::ShardedConfig config;
  config.num_keys = kKeys;
  config.registry = &registry;
  shard::KeyedLocalNode node(config, /*id=*/1, &transport, &clock);
  for (net::KeyId key = 0; key < kKeys; ++key) {
    for (uint32_t i = 0; i < kEvents; ++i) {
      ASSERT_TRUE(
          node.OnEvent(key, Event{1.0 + key + i, 5 + i, 1, i}).ok());
    }
  }
  ASSERT_TRUE(node.OnWatermark(config.window_len_us).ok());
  transport.frames.clear();

  net::KeyedBatchWriter requests(0);
  core::CandidateRequest req;
  req.window_id = 0;
  req.slice_indices = {0};
  for (net::KeyId key = 0; key < kKeys; ++key) requests.Add(key, req);
  net::Message frame =
      requests.Finish(net::MessageType::kShardCandidateRequest, 0, 1);
  frame.seq = 7;
  ASSERT_TRUE(node.OnMessage(frame).ok());
  ASSERT_TRUE(node.OnMessage(frame).ok());

  ASSERT_EQ(transport.frames.size(), 1u);
  EXPECT_EQ(transport.frames[0].type, net::MessageType::kShardCandidateReply);
  auto replies = net::KeyedBatchReader::Open(transport.frames[0].payload_bytes());
  ASSERT_TRUE(replies.ok()) << replies.status();
  EXPECT_EQ(replies->size(), kKeys);
  const obs::Counter* duplicates =
      registry.FindCounter("local.duplicates_ignored{node=1}");
  ASSERT_NE(duplicates, nullptr);
  EXPECT_EQ(duplicates->Value(), 1u);
}

}  // namespace
}  // namespace dema
