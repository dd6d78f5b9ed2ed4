#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "dema/root_node.h"
#include "net/codec.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/node.h"
#include "sim/stream_node.h"
#include "transport/transport.h"

namespace dema::sim {

/// \brief Which aggregation system a topology runs.
enum class SystemKind {
  /// Dema: synopsis identification + candidate calculation (this paper).
  kDema,
  /// Scotty-like centralized exact aggregation (all events to root, sort
  /// there).
  kCentralExact,
  /// Modified Desis: local sort, root k-way merge, all events transferred.
  kDesisMerge,
  /// t-digest baseline, sketched at the root from forwarded raw events.
  kTDigestCentral,
  /// t-digest extension: local sketches, root merges summaries.
  kTDigestDecentral,
  /// q-digest (Shrivastava et al.): decentralized sensor-network sketch over
  /// a bounded integer universe; the paper's second related-work comparator.
  kQDigest,
};

/// \brief Short display name, e.g. "Dema", "Scotty", "Desis", "Tdigest".
const char* SystemKindToString(SystemKind kind);

/// \brief Full configuration of a 1-root + N-local topology.
struct SystemConfig {
  SystemKind kind = SystemKind::kDema;
  /// Number of local (edge) nodes; node ids are root = 0, locals = 1..N.
  size_t num_locals = 2;
  /// Window lifespan.
  DurationUs window_len_us = kMicrosPerSecond;
  /// Slide step; 0 = tumbling (the paper's setting). Sliding windows are a
  /// Dema-only extension — the baselines reject a non-tumbling spec.
  DurationUs window_slide_us = 0;
  /// Quantiles answered per window.
  std::vector<double> quantiles = {0.5};

  // --- Dema knobs ---
  uint64_t gamma = 10'000;
  bool adaptive_gamma = false;
  /// With adaptive_gamma: optimize a separate γ per local node (the paper's
  /// future-work extension) instead of one global factor.
  bool per_node_gamma = false;
  bool naive_selection = false;  // ablation: window-cut off

  /// Dema root deadlines, retries and quarantine.
  core::RootRecoveryOptions recovery;

  /// Wire encoding for raw-event payloads (candidate replies, forwarded
  /// batches). kCompact roughly halves event bytes at a small CPU cost.
  net::EventCodec wire_codec = net::EventCodec::kFixed;

  // --- observability ---
  /// Metrics sink shared by the built nodes (Dema records `dema.*` and
  /// `local.*` instruments into it). When null, each node owns a private
  /// registry. Must outlive the system when provided.
  obs::Registry* registry = nullptr;
  /// Optional per-window span recorder for the Dema root. Must outlive the
  /// system when provided.
  obs::TraceRecorder* tracer = nullptr;

  // --- baseline knobs ---
  size_t batch_size = 8192;
  double tdigest_compression = 100.0;
  /// q-digest value domain, universe resolution, and compression factor.
  double qdigest_lo = 0;
  double qdigest_hi = 1'000'000;
  uint32_t qdigest_bits = 20;
  uint64_t qdigest_k = 256;
};

/// \brief A fully wired topology, registered on a network: the root, its
/// local nodes and, for the tree and tiered shapes, one more tier.
struct System {
  NodeId root_id = 0;
  std::vector<NodeId> local_ids;
  std::unique_ptr<RootNodeLogic> root;
  std::vector<std::unique_ptr<LocalNodeLogic>> locals;
  /// Relay tier between the root and the locals (`BuildTreeSystem`): root
  /// nodes with a parent. Empty otherwise.
  std::vector<NodeId> relay_ids;
  std::vector<std::unique_ptr<core::DemaRootNode>> relays;
  /// Data-stream tier (`BuildTieredSystem`): `sensors[i]` feed `locals[i]`,
  /// which then take events and their clock only from these sensors. Empty
  /// otherwise: the driver feeds each local directly.
  std::vector<std::vector<StreamNode>> sensors;
};

/// \brief Validates \p config (node counts, window spec, quantiles).
Status ValidateSystemConfig(const SystemConfig& config);

/// \brief Node ids of the configured local nodes (1..num_locals; root is 0).
std::vector<NodeId> LocalIds(const SystemConfig& config);

/// \brief Builds just the configured root logic on \p transport.
///
/// Transport-agnostic: \p transport may be the in-process `net::Network`
/// fabric or a `TcpTransport` in a root-only process. The caller owns inbox
/// registration (network fabric) or node hosting (TCP).
Result<std::unique_ptr<RootNodeLogic>> BuildRootLogic(
    const SystemConfig& config, transport::Transport* transport,
    const Clock* clock);

/// \brief Builds the configured local-node logic for node \p id (1-based)
/// on \p transport.
Result<std::unique_ptr<LocalNodeLogic>> BuildLocalLogic(
    const SystemConfig& config, NodeId id, transport::Transport* transport,
    const Clock* clock);

/// \brief Instantiates the configured system on \p network, registering
/// every node's inbox.
Result<System> BuildSystem(const SystemConfig& config, net::Network* network,
                           const Clock* clock);

}  // namespace dema::sim
