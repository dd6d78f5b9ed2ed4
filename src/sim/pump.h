#pragma once

#include <chrono>
#include <vector>

#include "common/status.h"
#include "net/network.h"
#include "sim/node.h"
#include "sim/topology.h"

namespace dema::sim {

/// Microseconds spent in \p fn, measured on the monotonic clock; \p fn's
/// status is stored in \p st.
template <typename Fn>
double TimedUs(Fn&& fn, Status* st) {
  auto start = std::chrono::steady_clock::now();
  *st = fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// \brief One node drained by `PumpToQuiescence`.
struct PumpNode {
  NodeId id = 0;
  /// The node's logic; null for a crashed node, whose inbox is skipped.
  NodeLogic* logic = nullptr;
  /// Busy-time account charged with the wall time of every `OnMessage`;
  /// null leaves the node untimed.
  double* busy_us = nullptr;
};

/// \brief The root, then the relays, then the locals of \p system, in pump
/// order. When given, \p root_busy_us and \p local_busy_us (one entry per
/// local) become their busy-time accounts; relays stay untimed.
std::vector<PumpNode> SystemPumpNodes(
    const System& system, double* root_busy_us = nullptr,
    std::vector<double>* local_busy_us = nullptr);

/// \brief The single-threaded delivery loop of every in-process system.
///
/// One round drains the inbox of each of \p nodes, in the order given, and
/// then calls the node's `Quiesce` (never charged to its busy time), so the
/// sends of the sharded root's strands land before the next node is drained.
/// After a round that delivered nothing and left every pumped inbox empty,
/// the fabric advances its virtual clock by one tick when hop events are
/// pending (event-driven delivery), or else releases the held-back delayed
/// messages (quiescence means their delay has "elapsed"). Returns once a
/// round finds every pumped inbox empty with nothing pending in events or
/// delays. Fails on the first node error.
Status PumpToQuiescence(net::Network* network,
                        const std::vector<PumpNode>& nodes);

}  // namespace dema::sim
