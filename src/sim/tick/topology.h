#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/result.h"
#include "common/time.h"

namespace dema::tick {

/// \brief Which layer of the fabric a link belongs to; selects its default
/// bandwidth/latency model and labels the per-hop latency histograms
/// (`sim.hop_latency_us{tier=...}`).
enum class LinkTier : uint8_t {
  kAccess = 0,  ///< endpoint <-> first switch (edge / leaf / regional hub)
  kAgg = 1,     ///< aggregation layer inside a site
  kCore = 2,    ///< core / spine layer
  kWan = 3,     ///< inter-region long-haul
};

inline constexpr size_t kNumLinkTiers = 4;

/// Short label for a tier ("access", "agg", "core", "wan").
const char* LinkTierName(LinkTier tier);

/// \brief Bandwidth/latency model of one physical link.
struct LinkSpec {
  double bandwidth_bytes_per_sec = 25e9 / 8.0;
  /// One-way propagation + framing latency per message.
  DurationUs base_latency_us = 50;

  /// Microseconds a message of \p bytes occupies this link (propagation +
  /// serialization), exactly: the simulated wire time the fabric reports.
  double TransferTimeUs(uint64_t bytes) const {
    return static_cast<double>(base_latency_us) +
           static_cast<double>(bytes) / bandwidth_bytes_per_sec * 1e6;
  }

  /// `TransferTimeUs` truncated to whole virtual microseconds, never less
  /// than 1 so event time always advances across a hop.
  uint64_t HopTimeUs(uint64_t bytes) const {
    const double us = TransferTimeUs(bytes);
    return us < 1.0 ? 1 : static_cast<uint64_t>(us);
  }
};

/// \brief One undirected link between two fabric vertices (endpoint or
/// switch). Both directions share the spec.
struct Link {
  uint32_t a = 0;
  uint32_t b = 0;
  LinkTier tier = LinkTier::kAccess;
  LinkSpec spec;
};

/// \brief A routed multi-hop network shape: endpoints (the registered node
/// ids 0..N) attached to an internal switch fabric, with per-link
/// bandwidth/latency models and deterministic routes.
///
/// Supported specs (options after ':' are comma-separated key=value):
///   - `star`                  one hub switch, every endpoint two hops away.
///   - `tree[:fanout=F]`       F-ary switch tree over the endpoints (def. 16).
///   - `fat-tree[:k=K]`        k-ary Clos fat-tree (k even, capacity k^3/4;
///                             the smallest sufficient k is chosen when
///                             omitted). Multi-path: the agg/core pick is a
///                             deterministic hash of (src, dst), so ECMP
///                             spreading never breaks run determinism.
///   - `wan[:regions=R,wan-latency-us=L]`
///                             R regional hubs full-meshed over long-haul
///                             links (def. 4 regions, ~L=5000us base with a
///                             deterministic per-pair spread); endpoints are
///                             assigned round-robin, endpoint 0 (the root)
///                             to region 0.
///
/// Switches are internal: they have no inbox and never appear as message
/// sources or destinations; they only add hop latency and (in the fabric's
/// event-driven mode) per-tier queueing observability.
class Topology {
 public:
  /// Builds a topology for endpoints 0..num_endpoints-1 from a spec string.
  static Result<std::shared_ptr<const Topology>> Build(const std::string& spec,
                                                       size_t num_endpoints);

  /// Canonical spec, e.g. "fat-tree:k=16".
  const std::string& name() const { return name_; }
  size_t num_endpoints() const { return num_endpoints_; }
  size_t num_switches() const { return num_switches_; }
  size_t num_links() const { return links_.size(); }
  const Link& link(uint32_t id) const { return links_[id]; }

  /// Appends the ordered link ids of the deterministic route from endpoint
  /// \p src to endpoint \p dst into \p out (cleared first). Fails when either
  /// id is not an endpoint or src == dst.
  Status Route(NodeId src, NodeId dst, std::vector<uint32_t>* out) const;

  /// Upper bound on hops of any route (2 for star, 6 for a fat-tree).
  size_t max_hops() const { return max_hops_; }

 private:
  enum class Kind { kStar, kTree, kFatTree, kWan };

  Topology() = default;

  /// Registers the undirected link a<->b, returning its id.
  uint32_t AddLink(uint32_t a, uint32_t b, LinkTier tier, const LinkSpec& spec);
  /// Link id between adjacent vertices (must exist).
  uint32_t LinkBetween(uint32_t a, uint32_t b) const;

  Status RouteTree(NodeId src, NodeId dst, std::vector<uint32_t>* out) const;
  Status RouteFatTree(NodeId src, NodeId dst, std::vector<uint32_t>* out) const;
  Status RouteWan(NodeId src, NodeId dst, std::vector<uint32_t>* out) const;

  Kind kind_ = Kind::kStar;
  std::string name_;
  size_t num_endpoints_ = 0;
  size_t num_switches_ = 0;
  size_t max_hops_ = 2;
  std::vector<Link> links_;
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> link_ids_;

  // tree: parent switch per vertex (endpoints first, then switches; the top
  // switch is its own parent), plus each vertex's depth (top = 0).
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> depth_;

  // fat-tree parameters.
  uint32_t k_ = 0;

  // wan: region per endpoint and hub vertex per region.
  uint32_t regions_ = 0;
};

}  // namespace dema::tick
