#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/driver.h"

namespace dema::sim {

/// \brief Configuration of a hierarchical (root -> relays -> locals) Dema
/// deployment.
struct TreeConfig {
  /// Relays directly under the root.
  size_t num_relays = 2;
  /// Leaf local nodes under each relay.
  size_t locals_per_relay = 3;
  DurationUs window_len_us = kMicrosPerSecond;
  std::vector<double> quantiles = {0.5};
  uint64_t gamma = 1'000;
  /// Shared metrics registry for every node: the top root records unlabelled
  /// `dema.*`, each relay the same instruments labelled `{node=<id>}`, the
  /// leaves `local.*{node=<id>}`. Null: each node owns its own.
  obs::Registry* registry = nullptr;
  /// Span sink for the top root's window traces. Null: spans are dropped.
  obs::TraceRecorder* tracer = nullptr;
};

/// \brief Builds the two-level tree on \p network as a `System` with a
/// relay tier. The root sees the relays as its "local nodes"; each relay
/// aggregates its leaves — Dema's protocol composes through the middle tier
/// unchanged. Node ids: root = 0, relays = 1..R, leaf locals = R+1 .. R+R*L
/// (relay-major). Run it with `SyncDriver`, one generator per leaf.
Result<System> BuildTreeSystem(const TreeConfig& config, net::Network* network,
                               const Clock* clock);

}  // namespace dema::sim
