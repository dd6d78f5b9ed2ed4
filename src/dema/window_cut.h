#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dema/slice.h"

namespace dema::core {

/// \brief Possible global-rank interval of one slice, derived from all
/// synopses (Section 3.2, grounded as in DESIGN.md).
///
/// `min_rank` is the smallest global rank the slice's first event can have;
/// `max_rank` the largest rank its last event can have. The true ranks of
/// every event in the slice lie within [min_rank, max_rank].
struct RankBounds {
  uint64_t min_rank = 0;
  uint64_t max_rank = 0;
};

/// \brief Diagnostic classification of slices (Figure 4 of the paper).
struct SliceClassCounts {
  /// Slices whose start/end positions no other slice covers.
  uint64_t separate = 0;
  /// Slices chained by partial overlap into compound-slices.
  uint64_t compound = 0;
  /// Slices entirely enclosed by another slice.
  uint64_t cover = 0;
};

/// \brief Rank-specific selection data: where a target rank falls after the
/// provably-below slices are removed.
struct RankSelection {
  /// The global target rank Pos(q).
  uint64_t rank = 0;
  /// Events in excluded slices that provably rank below `rank`; the final
  /// answer is the (rank - below_count)-th smallest candidate event.
  uint64_t below_count = 0;
};

/// \brief Output of the window-cut algorithm.
struct WindowCutResult {
  /// Indices (into the input synopsis vector) of candidate slices, ascending.
  std::vector<size_t> candidates;
  /// Per-target-rank selection offsets, in input rank order.
  std::vector<RankSelection> selections;
  /// Total events across candidate slices (the calculation step's network
  /// cost in events).
  uint64_t candidate_event_count = 0;
  /// Diagnostic slice classification.
  SliceClassCounts classes;
};

/// \brief Reusable buffers for `WindowCut::SelectMultiInto`, so a caller
/// that cuts many windows (the root core) allocates only while they grow.
struct WindowCutScratch {
  /// One slice endpoint (its first or last event) and the slice's index.
  struct Endpoint {
    Event key;
    size_t slice = 0;
  };
  /// Every slice's first event, ascending; equal firsts put the slice with
  /// the later last first, so a covering slice precedes those it covers.
  std::vector<Endpoint> firsts;
  /// Every slice's last event, ascending.
  std::vector<Endpoint> lasts;
  /// Each slice's possible global-rank interval, by input index.
  std::vector<RankBounds> bounds;
  std::vector<bool> is_candidate;
};

/// \brief The window-cut algorithm: picks the minimal provably-sufficient set
/// of candidate slices for one or more target ranks.
///
/// Guarantees: (i) every slice that can contain a target rank is a candidate;
/// (ii) every excluded slice lies entirely below or entirely above each
/// target rank, so `RankSelection::below_count` turns a global rank into an
/// exact rank among the merged candidate events. Sorts the slices' firsts and
/// lasts once each, then finds every rank bound and slice class in one sweep
/// per order: O(m log m) for m slices.
class WindowCut {
 public:
  /// Selects candidates for several target ranks at once (multi-quantile
  /// queries share one identification step), each in [1, global_size].
  /// Ranks need not be sorted. \p global_size must equal the sum of slice
  /// counts.
  static Result<WindowCutResult> SelectMulti(
      const std::vector<SliceSynopsis>& slices, uint64_t global_size,
      const std::vector<uint64_t>& target_ranks);

  /// `SelectMulti` writing into \p out (its buffers are reused) with
  /// temporaries in \p scratch; `scratch->bounds` then holds every slice's
  /// rank bounds.
  static Status SelectMultiInto(const std::vector<SliceSynopsis>& slices,
                                uint64_t global_size,
                                const std::vector<uint64_t>& target_ranks,
                                WindowCutScratch* scratch, WindowCutResult* out);

  /// Ablation baseline ("no window-cut"): starts from the slice the target
  /// rank lands in by cumulative counts and takes the transitive
  /// value-overlap closure around it as candidates — what a naive
  /// implementation without overlap pruning would transfer. Same exactness
  /// guarantees, typically many more candidate events under overlap.
  static Result<WindowCutResult> SelectNaiveOverlap(
      const std::vector<SliceSynopsis>& slices, uint64_t global_size,
      uint64_t target_rank);
};

}  // namespace dema::core
