#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "dema/local_node.h"
#include "dema/relay_node.h"
#include "dema/root_node.h"
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
  /// Shared metrics registry for the top root and the leaf locals (relays
  /// keep private registries: their inner root halves would otherwise write
  /// the same unscoped `dema.*` names as the real root). Null: each node
  /// owns its own.
  obs::Registry* registry = nullptr;
  /// Span sink for the top root's window traces. Null: spans are dropped.
  obs::TraceRecorder* tracer = nullptr;
};

/// \brief A built aggregation tree. Node ids: root = 0, relays = 1..R,
/// leaf locals = R+1 .. R+R*L (relay-major).
struct TreeSystem {
  NodeId root_id = 0;
  std::unique_ptr<core::DemaRootNode> root;
  std::vector<NodeId> relay_ids;
  std::vector<std::unique_ptr<core::DemaRelayNode>> relays;
  std::vector<NodeId> local_ids;
  std::vector<std::unique_ptr<core::DemaLocalNode>> locals;
};

/// \brief Builds the two-level tree on \p network. The root sees the relays
/// as its "local nodes"; each relay aggregates its leaves — Dema's protocol
/// composes through the middle tier unchanged.
Result<TreeSystem> BuildTreeSystem(const TreeConfig& config, net::Network* network,
                                   const Clock* clock);

/// \brief Deterministic driver for tree topologies: feeds leaf locals from
/// generators and pumps every tier until quiescent.
class TreeSyncDriver {
 public:
  TreeSyncDriver(TreeSystem* tree, net::Network* network);

  /// Runs the workload (one generator per leaf, leaf order).
  Status Run(const WorkloadConfig& workload);

  /// Outputs emitted by the root, in emission order.
  const std::vector<WindowOutput>& outputs() const { return outputs_; }
  /// Total events ingested across leaves.
  uint64_t events_ingested() const { return events_ingested_; }

 private:
  Status PumpMessages();

  TreeSystem* tree_;
  net::Network* network_;
  std::vector<WindowOutput> outputs_;
  uint64_t events_ingested_ = 0;
};

}  // namespace dema::sim
