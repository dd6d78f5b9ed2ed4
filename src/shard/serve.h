#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "net/keyed.h"
#include "shard/config.h"
#include "shard/sim_run.h"
#include "sim/tcp_run.h"

namespace dema::shard {

/// First node id handed to query clients (locals are 1..N, the service is
/// 0; anything >= this is a query session).
inline constexpr NodeId kFirstQueryClientId = 1000;

/// \brief Runs the sharded root service over TCP on `sim::ServeTcpRoot`:
/// hosts node 0, accepts keyed locals and query clients, aggregates until
/// every key emitted \p expected_windows windows — answering `kShardQuery`
/// frames concurrently the whole time — then lingers (`linger_us`), releases
/// the locals and returns. `windows_emitted` counts per-key windows; the
/// queries answered are `shard.queries` in `registry`.
Result<sim::RunMetrics> RunShardedTcpRoot(const ShardedConfig& config,
                                          uint64_t expected_windows,
                                          const sim::TcpRootOptions& options);

/// \brief Runs keyed local node \p id over TCP: dials the root
/// (`sim::DialRoot`), streams every key's generated windows through the
/// per-key state machines, serves candidate requests, and returns after the
/// root's `kShutdown`. Checkpoint, restore and crash options are refused:
/// they apply to a flat Dema local only.
Result<sim::TcpLocalReport> RunShardedTcpLocal(
    const ShardedConfig& config, const KeyedWorkloadConfig& workload,
    NodeId id, const sim::TcpLocalOptions& options);

/// \brief Options for the concurrent query client (`demactl query`).
struct ShardQueryOptions {
  std::string root_host = "127.0.0.1";
  uint16_t root_port = 0;
  /// Base node id; session t (0-based) connects as id + t.
  NodeId id = kFirstQueryClientId;
  /// Keys to ask for (split round-robin across sessions; each session asks
  /// its whole slice per query).
  std::vector<net::KeyId> keys;
  /// Quantiles per key; empty = all the service computes.
  std::vector<double> quantiles;
  /// Concurrent query sessions, each on its own TCP connection + thread.
  size_t concurrency = 4;
  /// Keep polling until every asked key answers `found` with `window_id` >=
  /// this; with 0 a single query round per session suffices.
  net::WindowId until_window = 0;
  /// After success, tell the root to release the cluster (ends its linger).
  bool shutdown_root = false;
  DurationUs timeout_us = 60 * kMicrosPerSecond;
  /// Re-send the (idempotent) query when no reply arrived within this long,
  /// so a frame lost in transit costs one interval, not the session timeout.
  DurationUs resend_us = MillisUs(250);
};

/// \brief What the query client saw.
struct ShardQueryReport {
  uint64_t queries_sent = 0;
  /// Keys answered `found` in each session's final reply (sums to
  /// `keys.size()` on success).
  uint64_t keys_found = 0;
  /// Every session's final reply, in session order (for assertions).
  std::vector<net::KeyedQueryReply> final_replies;
};

/// \brief Runs \p options.concurrency concurrent query sessions against a
/// sharded TCP root and returns once every session's keys reached
/// `until_window` (or immediately after one round when it is 0).
Result<ShardQueryReport> RunShardQueryClient(const ShardQueryOptions& options);

}  // namespace dema::shard
