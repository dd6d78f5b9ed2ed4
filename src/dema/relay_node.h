#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/clock.h"
#include "dema/protocol.h"
#include "net/dedup.h"
#include "transport/transport.h"
#include "sim/node.h"

namespace dema::core {

/// \brief Configuration of a Dema relay (intermediate aggregation) node.
struct DemaRelayNodeOptions {
  /// This relay's id.
  NodeId id = 0;
  /// The upstream node (the root, or another relay).
  NodeId parent = 0;
  /// The downstream nodes (local nodes, or other relays).
  std::vector<NodeId> children;
};

/// \brief Intermediate tier for hierarchical Dema topologies.
///
/// Deep IoT deployments aggregate through trees (the tree-structured systems
/// of the paper's related work); Dema's protocol composes naturally because
/// a relay can speak the *local-node* protocol upward while running the
/// *root* protocol downward:
///
///  * Identification: the relay collects one synopsis batch per child per
///    window, re-indexes the union of their slices under its own node id
///    (first/last/count are untouched, so the rank mathematics upstream is
///    unchanged), and ships a single combined batch to its parent — fan-in
///    at the root drops from #leaves to #relays.
///  * Calculation: a candidate request from the parent is split by owning
///    child; the pre-sorted child replies are loser-tree merged into one
///    sorted reply upward. The relay never retains raw events.
///  * γ updates are forwarded to every child.
///  * Transport-level repeats (a second delivery of one (src, seq)) are
///    dropped, as at the root and the locals.
///
/// Relays nest: a relay's parent may be another relay.
class DemaRelayNode final : public sim::NodeLogic {
 public:
  /// \p transport and \p clock must outlive the node.
  DemaRelayNode(DemaRelayNodeOptions options, transport::Transport* transport,
                const Clock* clock);

  Status OnMessage(const net::Message& msg) override;

  /// Transport-level repeats (same (src, seq)) dropped so far.
  uint64_t duplicates_ignored() const { return dedup_.duplicates_seen(); }

  /// Windows awaiting child synopses or replies (memory accounting).
  size_t pending_windows() const {
    return pending_up_.size() + pending_down_.size();
  }

 private:
  /// Identification-side state: collecting child synopses.
  struct PendingUp {
    std::vector<bool> child_reported;  // by child index
    size_t children_received = 0;
    uint64_t combined_size = 0;
    TimestampUs last_close_time_us = 0;
    uint32_t gamma_used = 0;
    std::vector<SliceSynopsis> slices;  // re-indexed under the relay's id
    /// Re-index mapping: relay slice index -> (child node, child index).
    std::vector<std::pair<NodeId, uint32_t>> origin;
  };
  /// Calculation-side state: collecting child candidate replies.
  struct PendingDown {
    size_t expected_replies = 0;
    std::vector<std::vector<Event>> runs;
  };

  Status HandleChildSynopsis(const SynopsisBatch& batch);
  Status HandleParentRequest(const CandidateRequest& request);
  Status HandleChildReply(const CandidateReply& reply);
  Status HandleGammaUpdate(const net::Message& msg);

  DemaRelayNodeOptions options_;
  transport::Transport* transport_;
  const Clock* clock_;
  std::map<NodeId, size_t> child_index_;
  std::map<net::WindowId, PendingUp> pending_up_;
  /// Re-index mappings for windows already forwarded upward, kept until the
  /// parent's candidate request arrives.
  std::map<net::WindowId, std::vector<std::pair<NodeId, uint32_t>>> forwarded_;
  std::map<net::WindowId, PendingDown> pending_down_;
  /// Transport-level duplicate suppression over message sequence numbers.
  net::SeqDedup dedup_;
};

}  // namespace dema::core
