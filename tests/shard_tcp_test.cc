// TCP deployment of the sharded service: a real socket run (root process
// loop + keyed locals + concurrent query client) must answer every key with
// exactly the values the in-process sim fabric computes for the same seeds
// — which shard_parity_test in turn pins to independent single-key runs.

#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/keyed.h"
#include "obs/registry.h"
#include "shard/config.h"
#include "shard/serve.h"
#include "shard/sim_run.h"

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

TEST(ShardTcp, ShardedServeAnswersConcurrentQueriesWithSimParity) {
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 4;
  sc.num_keys = 12;
  sc.workers = 2;
  sc.quantiles = {0.5, 0.9};
  sc.gamma = 32;

  shard::KeyedWorkloadConfig load;
  load.num_windows = 3;
  load.event_rate = 400;
  load.distribution = TestDistribution();
  load.seed_base = 8086;

  // Reference: the same deployment on the sim fabric.
  shard::ShardedSimHarness harness(sc);
  ASSERT_TRUE(harness.init_status().ok()) << harness.init_status();
  ASSERT_TRUE(harness.Run(load).ok());

  // --- TCP run ---
  uint16_t port = 0;
  std::mutex port_mu;
  std::condition_variable port_cv;
  Result<sim::RunMetrics> root_report =
      Status::Internal("root never ran");
  std::thread root_thread([&] {
    sim::TcpRootOptions opts;
    opts.listen_port = 0;
    opts.linger_us = 30 * kMicrosPerSecond;  // hold for the query client
    opts.on_listening = [&](uint16_t p) {
      std::lock_guard<std::mutex> lock(port_mu);
      port = p;
      port_cv.notify_all();
    };
    root_report = shard::RunShardedTcpRoot(sc, load.num_windows, opts);
  });
  {
    std::unique_lock<std::mutex> lock(port_mu);
    port_cv.wait(lock, [&] { return port != 0; });
  }

  std::vector<Result<sim::TcpLocalReport>> local_reports(
      sc.num_locals, Status::Internal("local never ran"));
  std::vector<std::thread> local_threads;
  for (size_t i = 0; i < sc.num_locals; ++i) {
    local_threads.emplace_back([&, i] {
      sim::TcpLocalOptions opts;
      opts.root_port = port;
      local_reports[i] = shard::RunShardedTcpLocal(
          sc, load, static_cast<NodeId>(i + 1), opts);
    });
  }

  // Concurrent query sessions poll until every key reaches the final
  // window, then release the root.
  shard::ShardQueryOptions qopts;
  qopts.root_port = port;
  for (net::KeyId key = 0; key < sc.num_keys; ++key) qopts.keys.push_back(key);
  qopts.concurrency = 4;
  qopts.until_window = load.num_windows - 1;
  qopts.shutdown_root = true;
  Result<shard::ShardQueryReport> query_report =
      shard::RunShardQueryClient(qopts);

  root_thread.join();
  for (auto& t : local_threads) t.join();

  ASSERT_TRUE(query_report.ok()) << query_report.status();
  ASSERT_TRUE(root_report.ok()) << root_report.status();
  for (size_t i = 0; i < sc.num_locals; ++i) {
    ASSERT_TRUE(local_reports[i].ok())
        << "local " << i + 1 << ": " << local_reports[i].status();
  }

  EXPECT_EQ(root_report->windows_emitted, load.num_windows * sc.num_keys);
  EXPECT_EQ(query_report->keys_found, sc.num_keys);
  EXPECT_GE(query_report->queries_sent, 1u);

  // Every key's final answer over TCP == the sim fabric's last window.
  std::map<net::KeyId, net::KeyedAnswer> final_answers;
  for (const auto& reply : query_report->final_replies) {
    ASSERT_TRUE(reply.error.empty()) << reply.error;
    EXPECT_EQ(reply.quantiles, sc.quantiles);
    for (const auto& a : reply.answers) final_answers[a.key] = a;
  }
  ASSERT_EQ(final_answers.size(), sc.num_keys);
  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    const net::KeyedAnswer& a = final_answers[key];
    ASSERT_TRUE(a.found) << "key " << key;
    EXPECT_EQ(a.window_id, load.num_windows - 1) << "key " << key;
    EXPECT_FALSE(a.degraded) << "key " << key;
    const auto& want = harness.outputs_by_key()[key].back();
    EXPECT_EQ(a.global_size, want.global_size) << "key " << key;
    ASSERT_EQ(a.values.size(), want.values.size());
    for (size_t q = 0; q < want.values.size(); ++q) {
      EXPECT_EQ(a.values[q], want.values[q])
          << "key " << key << " quantile " << sc.quantiles[q]
          << " must match the sim fabric exactly over TCP";
    }
  }

  // The keyed wire really batches: per-key synopsis traffic travels as
  // kShardSynopsisBatch frames, never as bare kSynopsisBatch frames.
  EXPECT_TRUE(root_report->by_type.count(net::MessageType::kShardSynopsisBatch));
  EXPECT_FALSE(root_report->by_type.count(net::MessageType::kSynopsisBatch));
}

TEST(ShardTcp, QueryClientRejectsBadQuantile) {
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = 2;
  sc.num_keys = 4;
  sc.workers = 2;
  sc.quantiles = {0.5};

  shard::KeyedWorkloadConfig load;
  load.num_windows = 2;
  load.event_rate = 200;
  load.distribution = TestDistribution();

  uint16_t port = 0;
  std::mutex port_mu;
  std::condition_variable port_cv;
  Result<sim::RunMetrics> root_report =
      Status::Internal("root never ran");
  std::thread root_thread([&] {
    sim::TcpRootOptions opts;
    opts.listen_port = 0;
    opts.linger_us = 30 * kMicrosPerSecond;
    opts.on_listening = [&](uint16_t p) {
      std::lock_guard<std::mutex> lock(port_mu);
      port = p;
      port_cv.notify_all();
    };
    root_report = shard::RunShardedTcpRoot(sc, load.num_windows, opts);
  });
  {
    std::unique_lock<std::mutex> lock(port_mu);
    port_cv.wait(lock, [&] { return port != 0; });
  }
  std::vector<std::thread> local_threads;
  std::vector<Result<sim::TcpLocalReport>> local_reports(
      sc.num_locals, Status::Internal("local never ran"));
  for (size_t i = 0; i < sc.num_locals; ++i) {
    local_threads.emplace_back([&, i] {
      sim::TcpLocalOptions opts;
      opts.root_port = port;
      local_reports[i] = shard::RunShardedTcpLocal(
          sc, load, static_cast<NodeId>(i + 1), opts);
    });
  }

  // An unconfigured quantile must fail the query with the service's error.
  shard::ShardQueryOptions bad;
  bad.root_port = port;
  bad.keys = {0, 1};
  bad.quantiles = {0.25};
  bad.concurrency = 1;
  Result<shard::ShardQueryReport> bad_report = shard::RunShardQueryClient(bad);
  ASSERT_FALSE(bad_report.ok());
  EXPECT_EQ(bad_report.status().code(), StatusCode::kInvalidArgument)
      << bad_report.status();

  // A good query still works afterwards, and releases the cluster. It
  // deliberately reuses the default id base: a client reconnecting under the
  // same node id restarts its seq counter, and queries must not be swallowed
  // by the root's exactly-once filter.
  shard::ShardQueryOptions good;
  good.root_port = port;
  for (net::KeyId key = 0; key < sc.num_keys; ++key) good.keys.push_back(key);
  good.concurrency = 2;
  good.until_window = load.num_windows - 1;
  good.shutdown_root = true;
  Result<shard::ShardQueryReport> good_report =
      shard::RunShardQueryClient(good);
  root_thread.join();
  for (auto& t : local_threads) t.join();
  ASSERT_TRUE(root_report.ok()) << root_report.status();
  ASSERT_TRUE(good_report.ok()) << good_report.status();
  EXPECT_EQ(good_report->keys_found, sc.num_keys);
  for (auto& r : local_reports) ASSERT_TRUE(r.ok()) << r.status();
}

TEST(ShardTcp, LocalTransportRecordsIntoCallerRegistry) {
  // A keyed local's transport counts its socket traffic into the caller's
  // registry, beside the keys' own `local.*` instruments, as a flat local's
  // does: both dial the root through `sim::DialRoot`.
  shard::ShardedConfig sc;
  sc.num_locals = 1;
  sc.num_shards = 2;
  sc.num_keys = 4;
  sc.workers = 1;
  sc.quantiles = {0.5};

  shard::KeyedWorkloadConfig load;
  load.num_windows = 2;
  load.event_rate = 200;
  load.distribution = TestDistribution();

  uint16_t port = 0;
  std::mutex port_mu;
  std::condition_variable port_cv;
  Result<sim::RunMetrics> root_report = Status::Internal("root never ran");
  std::thread root_thread([&] {
    sim::TcpRootOptions opts;
    opts.on_listening = [&](uint16_t p) {
      std::lock_guard<std::mutex> lock(port_mu);
      port = p;
      port_cv.notify_all();
    };
    root_report = shard::RunShardedTcpRoot(sc, load.num_windows, opts);
  });
  {
    std::unique_lock<std::mutex> lock(port_mu);
    port_cv.wait(lock, [&] { return port != 0; });
  }

  obs::Registry registry;
  shard::ShardedConfig local_config = sc;
  local_config.registry = &registry;
  sim::TcpLocalOptions opts;
  opts.root_port = port;
  Result<sim::TcpLocalReport> local_report =
      shard::RunShardedTcpLocal(local_config, load, /*id=*/1, opts);
  root_thread.join();
  ASSERT_TRUE(root_report.ok()) << root_report.status();
  ASSERT_TRUE(local_report.ok()) << local_report.status();
  EXPECT_EQ(root_report->windows_emitted, load.num_windows * sc.num_keys);

  uint64_t sent_bytes = 0;
  for (const auto& [name, value] : registry.CounterValues()) {
    if (name.rfind("transport.sent.bytes", 0) == 0) sent_bytes += value;
  }
  EXPECT_GT(sent_bytes, 0u);
}

TEST(ShardTcp, LocalRejectsFlatDemaOnlyOptions) {
  // Checkpoint, restore and a scheduled crash snapshot one flat Dema local;
  // a keyed local refuses them up front instead of ignoring them.
  shard::ShardedConfig sc;
  sc.num_locals = 1;
  sc.num_shards = 1;
  sc.num_keys = 2;
  sc.quantiles = {0.5};
  shard::KeyedWorkloadConfig load;
  load.num_windows = 1;
  load.distribution = TestDistribution();

  sim::TcpLocalOptions checkpoint;
  checkpoint.checkpoint_path = "keyed.ckpt";
  sim::TcpLocalOptions restore;
  restore.restore_path = "keyed.ckpt";
  sim::TcpLocalOptions crash;
  crash.crash_at_window = 1;
  for (sim::TcpLocalOptions opts : {checkpoint, restore, crash}) {
    opts.root_port = 1;  // never dialed
    Result<sim::TcpLocalReport> report =
        shard::RunShardedTcpLocal(sc, load, /*id=*/1, opts);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << report.status();
  }
}

}  // namespace
}  // namespace dema
