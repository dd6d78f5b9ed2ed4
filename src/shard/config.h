#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dema/root_core.h"
#include "net/codec.h"
#include "net/keyed.h"
#include "obs/registry.h"

namespace dema::shard {

/// \brief Configuration of a key-sharded multi-tenant Dema deployment: one
/// shard service (node 0) fronting S independent root shards, N keyed local
/// nodes (ids 1..N), and K tenant keys hashed across the shards.
struct ShardedConfig {
  /// Keyed local nodes; node ids are service = 0, locals = 1..N.
  size_t num_locals = 2;
  /// Root shards. Every shard is an independent per-key protocol instance
  /// scheduled on the service's executor; 0 is rejected by `Validate` (no
  /// silent fallback to an unsharded topology).
  uint32_t num_shards = 1;
  /// Tenant keys, dense ids 0..num_keys-1. The key universe is declared up
  /// front: every local hosts every key and ships empty windows for idle
  /// keys, so each shard's per-key root can align all locals exactly like an
  /// unsharded run.
  uint64_t num_keys = 1;
  /// Executor worker threads the shard strands run on. Must be >= 1: shards
  /// always run on the `src/exec` pool, and `exec::ExecutorOptions` silently
  /// clamps 0 to 1 — `Validate` rejects 0 instead of inheriting that
  /// fallback.
  size_t workers = 1;

  /// Window lifespan (tumbling; same for every key).
  DurationUs window_len_us = kMicrosPerSecond;
  /// Quantiles computed per key per window. Queries may ask for any subset.
  std::vector<double> quantiles = {0.5};

  // --- Dema knobs (applied to every per-key instance) ---
  uint64_t gamma = 10'000;
  bool adaptive_gamma = false;
  net::EventCodec wire_codec = net::EventCodec::kFixed;

  /// Deadlines, retries and quarantine of every per-key root.
  core::RootRecoveryOptions recovery;

  // --- observability ---
  /// Shared metrics sink; per-key roots label their instruments `{shard=S}`
  /// and keyed locals theirs `{node=N}`, so one registry aggregates per
  /// shard and per local. When null the service and each local own one.
  obs::Registry* registry = nullptr;
};

/// \brief Validates \p config. Fail-fast: zero shard/key/worker/local counts
/// are configuration bugs and return `InvalidArgument` instead of silently
/// degenerating (matching the PR 2 quantile-validation convention).
Status ValidateShardedConfig(const ShardedConfig& config);

/// Node ids of the keyed local nodes (1..num_locals; the service is 0).
std::vector<NodeId> ShardLocalIds(const ShardedConfig& config);

/// Instrument label for shard \p s, e.g. "shard=3" (brace-free form consumed
/// by `DemaRootNodeOptions::instrument_label`).
std::string ShardLabel(uint32_t s);

}  // namespace dema::shard
