#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/result.h"

namespace dema::stream {

/// \brief Streaming k-way merger over pre-sorted event runs.
///
/// Used by the Dema root to combine per-node candidate events and by the
/// Desis baseline to merge whole sorted local windows.
///
/// The advance loop is branch-free with respect to run exhaustion: every
/// leaf holds a materialized head event, and exhausted (or virtual) runs
/// hold a +inf sentinel that loses every comparison — no per-comparison
/// `done` checks. Equal heads (possible when callers merge runs that break
/// the strict-total-order contract, e.g. duplicated events) are broken by
/// leaf index, lowest run first, so the merge order is always deterministic.
///
/// Two engines sit behind the same interface:
///  - k ≤ 8: a flat argmin over the contiguous head-value array, using AVX2
///    when the CPU has it (runtime dispatch) — the common root fan-in case.
///  - otherwise: a loser tree, O(log k) comparisons per produced event.
///
/// `Skip(n)` advances past n events without producing them, galloping
/// through the winning run by binary search up to the smallest head among
/// the other runs — rank selection with sparse ranks touches O(log run)
/// per gallop instead of O(n · log k).
class LoserTreeMerger {
 public:
  /// Takes ownership of \p runs; each run must be sorted by the global event
  /// order. Empty runs are allowed, and so is no run at all.
  explicit LoserTreeMerger(std::vector<std::vector<Event>> runs) {
    Reset(std::move(runs));
  }

  /// Starts a new merge over \p runs (same contract as the constructor),
  /// reusing the tournament buffers of the last one: a merger reset with no
  /// more runs than before allocates nothing.
  void Reset(std::vector<std::vector<Event>> runs);

  /// True while events remain.
  bool HasNext() const { return remaining_ > 0; }

  /// Produces the next event in global order; must not be called when
  /// `HasNext()` is false.
  Event Next();

  /// Discards the next \p n events of the merged order (cheaper than n
  /// `Next()` calls when one run dominates a stretch). \p n must not exceed
  /// `remaining()`.
  void Skip(uint64_t n);

  /// Events not yet produced.
  uint64_t remaining() const { return remaining_; }

  /// Hands the runs back (unchanged); the merger is spent afterwards.
  std::vector<std::vector<Event>> TakeRuns() { return std::move(runs_); }

 private:
  /// Replays the tournament from leaf \p runner upward (tree engine).
  void Replay(size_t runner);
  /// True when leaf a's head loses to (is ordered after) leaf b's head.
  bool Loses(size_t a, size_t b) const;
  /// Current winning leaf (flat engine: argmin; tree engine: tree_[0]).
  size_t Winner() const;
  /// Advances leaf \p w by \p n events and refreshes its head/tournament.
  void Advance(size_t w, size_t n);
  /// Smallest head event among all leaves except \p w (the gallop limit).
  Event LimitExcluding(size_t w) const;

  std::vector<std::vector<Event>> runs_;
  std::vector<size_t> pos_;    // cursor per run
  /// Head event per padded leaf; exhausted/virtual leaves hold the sentinel.
  std::vector<Event> heads_;
  /// heads_[i].value mirrored contiguously for the SIMD/flat argmin.
  std::vector<double> head_vals_;
  std::vector<size_t> tree_;   // internal nodes hold losers; tree_[0] = winner
  size_t k_ = 0;               // padded leaf count (power of two)
  bool flat_ = false;          // k_ <= 8: argmin engine instead of the tree
  uint64_t remaining_ = 0;
};

/// \brief Fully merges \p runs into one sorted vector.
std::vector<Event> MergeSortedRuns(std::vector<std::vector<Event>> runs);

/// \brief Picks the events at the given 1-based global \p ranks across the
/// pre-sorted \p runs without materializing the merged sequence.
///
/// Advances the tournament only up to the highest requested rank, galloping
/// over the gaps between ranks (`LoserTreeMerger::Skip`): O(r_max · log k)
/// comparisons worst case, far fewer for sparse ranks, and O(1) extra
/// memory beyond the runs themselves, versus `MergeSortedRuns`'s full
/// O(n)-event allocation — the difference the root's calculation step runs
/// on. Ranks may repeat and arrive in any order; the result vector is
/// parallel to \p ranks. Fails with `InvalidArgument` when a rank falls
/// outside [1, total events].
Result<std::vector<Event>> SelectRanksFromRuns(
    std::vector<std::vector<Event>> runs, const std::vector<uint64_t>& ranks);

/// \brief The merger and rank order `SelectRanksFromRunsInto` works in, kept
/// by a caller that selects window after window.
struct RankSelectScratch {
  LoserTreeMerger merger{std::vector<std::vector<Event>>{}};
  std::vector<size_t> order;
};

/// \brief `SelectRanksFromRuns` that leaves \p runs intact and writes the
/// picked events into \p out, working in \p scratch: a caller selecting
/// window after window reuses every buffer and, warm, allocates nothing. A
/// single run is indexed directly, without a merge.
Status SelectRanksFromRunsInto(std::vector<std::vector<Event>>* runs,
                               const std::vector<uint64_t>& ranks,
                               std::vector<Event>* out,
                               RankSelectScratch* scratch);

}  // namespace dema::stream
