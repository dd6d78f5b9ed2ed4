// Unit and property tests for the window-cut algorithm: candidate soundness,
// rank-interval bounds, slice classification, and exact selection against a
// brute-force oracle over adversarial overlap patterns. The oracle computes
// bounds and classes from their definitions at O(m²), and the paper's
// Algorithm 1 runs on those bounds as a second formulation of the cut.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "dema/slice.h"
#include "dema/window_cut.h"
#include "stream/quantile.h"

namespace dema::core {
namespace {

Event Ev(double value, NodeId node = 1, uint32_t seq = 0) {
  return Event{value, 0, node, seq};
}

/// Builds a synopsis directly from endpoints (keys disambiguated by node).
SliceSynopsis Syn(NodeId node, uint32_t index, double first, double last,
                  uint64_t count) {
  SliceSynopsis s;
  s.node = node;
  s.index = index;
  s.first = Ev(first, node, index * 2);
  s.last = Ev(last, node, index * 2 + 1);
  s.count = count;
  return s;
}

TEST(WindowCut, DisjointSlicesPickExactlyOne) {
  // Three disjoint slices of 10 each; rank 15 sits in the middle one.
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 9, 10), Syn(1, 1, 10, 19, 10),
                                       Syn(2, 0, 20, 29, 10)};
  auto result = WindowCut::SelectMulti(slices, 30, {15});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_EQ(result->candidates[0], 1u);
  EXPECT_EQ(result->selections[0].below_count, 10u);
  EXPECT_EQ(result->candidate_event_count, 10u);
}

TEST(WindowCut, BoundaryRanksStayWithinOneSlice) {
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 9, 10), Syn(2, 0, 20, 29, 10)};
  auto first = WindowCut::SelectMulti(slices, 20, {1});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->candidates, std::vector<size_t>{0});
  auto last = WindowCut::SelectMulti(slices, 20, {20});
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->candidates, std::vector<size_t>{1});
  EXPECT_EQ(last->selections[0].below_count, 10u);
}

TEST(WindowCut, OverlapForcesBothCandidates) {
  // Two interleaved slices: the median could sit in either.
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 100, 10), Syn(2, 0, 50, 150, 10)};
  auto result = WindowCut::SelectMulti(slices, 20, {10});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 2u);
  EXPECT_EQ(result->selections[0].below_count, 0u);
}

TEST(WindowCut, CoverSliceInsideCandidateIsIncluded) {
  // A small slice fully inside the big one around the rank must be fetched;
  // its events could land anywhere inside the cover range (Section 3.2 iii).
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 1000, 50),
                                       Syn(2, 0, 400, 600, 10)};
  auto result = WindowCut::SelectMulti(slices, 60, {30});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 2u);
}

TEST(WindowCut, FarCoverSliceIsExcluded) {
  // Rank 3 resolves inside the first slice: a covered slice far to the right
  // cannot contain it even though it is covered by slice 1's value range...
  // unless its events could rank below. Layout: A=[0,10]x10, B=[100,200]x10,
  // C=[150,160]x4 (covered by B). Rank 3 must only need A.
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 10, 10), Syn(1, 1, 100, 200, 10),
                                       Syn(2, 0, 150, 160, 4)};
  auto result = WindowCut::SelectMulti(slices, 24, {3});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates, std::vector<size_t>{0});
  EXPECT_EQ(result->selections[0].below_count, 0u);
}

TEST(WindowCut, RankBoundsAreSane) {
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 100, 10), Syn(2, 0, 50, 150, 10),
                                       Syn(2, 1, 200, 300, 5)};
  WindowCutScratch scratch;
  WindowCutResult result;
  ASSERT_TRUE(WindowCut::SelectMultiInto(slices, 25, {1}, &scratch, &result).ok());
  const std::vector<RankBounds>& bounds = scratch.bounds;
  ASSERT_EQ(bounds.size(), 3u);
  // Slice 0 starts the order: min rank of its first event is 1.
  EXPECT_EQ(bounds[0].min_rank, 1u);
  // Slice 0's last (100) can at most be preceded by all of slice 0 and all of
  // slice 1 except its last event (150 > 100): 10 + 9 = 19.
  EXPECT_EQ(bounds[0].max_rank, 19u);
  // Slice 1's first (50) is definitely after slice 0's first only: min 2.
  EXPECT_EQ(bounds[1].min_rank, 2u);
  // Slice 2 is disjoint above both: min rank = 21, max = 25.
  EXPECT_EQ(bounds[2].min_rank, 21u);
  EXPECT_EQ(bounds[2].max_rank, 25u);
  for (const auto& b : bounds) EXPECT_LE(b.min_rank, b.max_rank);
}

TEST(WindowCut, MultiRankSharesCandidates) {
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 9, 10), Syn(1, 1, 10, 19, 10),
                                       Syn(2, 0, 20, 29, 10)};
  auto result = WindowCut::SelectMulti(slices, 30, {5, 15, 25});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 3u);  // one per rank here
  ASSERT_EQ(result->selections.size(), 3u);
  EXPECT_EQ(result->selections[0].rank, 5u);
  EXPECT_EQ(result->selections[0].below_count, 0u);
  EXPECT_EQ(result->selections[1].below_count, 0u);  // slice 0 is a candidate
  EXPECT_EQ(result->selections[2].below_count, 0u);
}

TEST(WindowCut, MultiRankBelowCountsSkipOnlyExcludedSlices) {
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 9, 10), Syn(1, 1, 10, 19, 10),
                                       Syn(2, 0, 20, 29, 10)};
  auto result = WindowCut::SelectMulti(slices, 30, {25});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates, std::vector<size_t>{2});
  EXPECT_EQ(result->selections[0].below_count, 20u);
}

TEST(WindowCut, InputValidation) {
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 9, 10)};
  EXPECT_FALSE(WindowCut::SelectMulti(slices, 11, {5}).ok());   // size mismatch
  EXPECT_FALSE(WindowCut::SelectMulti(slices, 10, {0}).ok());   // rank below 1
  EXPECT_FALSE(WindowCut::SelectMulti(slices, 10, {11}).ok());  // rank above size
  EXPECT_FALSE(WindowCut::SelectMulti({}, 0, {1}).ok());        // empty window
  EXPECT_FALSE(WindowCut::SelectMulti(slices, 10, {}).ok());
  auto bad = Syn(1, 0, 9, 0, 10);  // last < first
  EXPECT_FALSE(WindowCut::SelectMulti({bad}, 10, {5}).ok());
}

TEST(WindowCut, ClassifySlicesFigureFour) {
  // Approximation of the paper's Figure 4 layout on a value axis:
  //  a1 [0,10] separate
  //  a2 [20,40] + b1 [35,55] compound pair
  //  b2 [60,62], b3 [64,66] covered by a3 [58,80]; a3+b4 [75,95] compound
  //  a4 [84,90] covered by b4; b5 [100,110] separate
  std::vector<SliceSynopsis> slices = {
      Syn(1, 1, 0, 10, 5),    // a1
      Syn(1, 2, 20, 40, 5),   // a2
      Syn(2, 1, 35, 55, 5),   // b1
      Syn(1, 3, 58, 80, 5),   // a3
      Syn(2, 2, 60, 62, 5),   // b2
      Syn(2, 3, 64, 66, 5),   // b3
      Syn(2, 4, 75, 95, 5),   // b4
      Syn(1, 4, 84, 90, 5),   // a4
      Syn(2, 5, 100, 110, 5)  // b5
  };
  auto result = WindowCut::SelectMulti(slices, 45, {1});
  ASSERT_TRUE(result.ok());
  const SliceClassCounts& counts = result->classes;
  EXPECT_EQ(counts.cover, 3u);     // b2, b3, a4
  EXPECT_EQ(counts.compound, 4u);  // a2+b1, a3+b4
  EXPECT_EQ(counts.separate, 2u);  // a1, b5
}

TEST(WindowCut, ClassifyEmptyAndSingle) {
  auto result = WindowCut::SelectMulti({Syn(1, 0, 0, 10, 5)}, 5, {1});
  ASSERT_TRUE(result.ok());
  const SliceClassCounts& counts = result->classes;
  EXPECT_EQ(counts.separate, 1u);
  EXPECT_EQ(counts.compound, 0u);
  EXPECT_EQ(counts.cover, 0u);
}

TEST(WindowCut, NaiveSelectionIsSupersetUnderOverlap) {
  // Chain of overlapping slices: window-cut prunes, the naive closure takes
  // the whole chain.
  std::vector<SliceSynopsis> slices;
  for (uint32_t i = 0; i < 10; ++i) {
    slices.push_back(Syn(1, i, i * 10.0, i * 10.0 + 15.0, 10));
  }
  auto smart = WindowCut::SelectMulti(slices, 100, {50});
  auto naive = WindowCut::SelectNaiveOverlap(slices, 100, 50);
  ASSERT_TRUE(smart.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_GE(naive->candidate_event_count, smart->candidate_event_count);
  EXPECT_EQ(naive->candidate_event_count, 100u);  // full chain
  EXPECT_LT(smart->candidate_event_count, 100u);
}

// --- Brute-force oracle -----------------------------------------------------

/// DESIGN.md's rank bounds, summed straight from `defBelow` and `possLE` over
/// every pair of slices: O(m²).
std::vector<RankBounds> OracleBounds(const std::vector<SliceSynopsis>& slices) {
  std::vector<RankBounds> bounds;
  for (const SliceSynopsis& s : slices) {
    uint64_t def_below = 0;
    uint64_t poss_le = 0;
    for (const SliceSynopsis& t : slices) {
      if (t.last < s.first) {
        def_below += t.count;
      } else if (t.first < s.first) {
        def_below += 1;
      }
      if (t.last <= s.last) {
        poss_le += t.count;
      } else if (t.first <= s.last) {
        poss_le += t.count - 1;
      }
    }
    bounds.push_back(RankBounds{1 + def_below, poss_le});
  }
  return bounds;
}

/// Figure 4's classes from their definitions, over every pair of slices: a
/// slice enclosed by another is a cover slice (of identical slices, all but
/// the one with the lowest index); any other slice is compound when it
/// intersects another slice that is not a cover slice, and separate if not.
SliceClassCounts OracleClasses(const std::vector<SliceSynopsis>& slices) {
  const size_t m = slices.size();
  auto encloses = [&](size_t t, size_t s) {
    const SliceSynopsis& a = slices[t];
    const SliceSynopsis& b = slices[s];
    if (a.first == b.first && a.last == b.last) return t < s;
    return a.first <= b.first && b.last <= a.last;
  };
  std::vector<bool> cover(m, false);
  for (size_t s = 0; s < m; ++s) {
    for (size_t t = 0; t < m; ++t) {
      if (t != s && encloses(t, s)) cover[s] = true;
    }
  }
  SliceClassCounts counts;
  for (size_t s = 0; s < m; ++s) {
    if (cover[s]) {
      ++counts.cover;
      continue;
    }
    bool meets = false;
    for (size_t t = 0; t < m; ++t) {
      meets |= t != s && !cover[t] && slices[t].first <= slices[s].last &&
               slices[s].first <= slices[t].last;
    }
    if (meets) {
      ++counts.compound;
    } else {
      ++counts.separate;
    }
  }
  return counts;
}

/// The whole window cut from the oracle's bounds and classes: a slice is a
/// candidate when some target rank lies in its bounds, and each rank's
/// below-count sums the excluded slices whose bounds end below it.
WindowCutResult OracleCut(const std::vector<SliceSynopsis>& slices,
                          const std::vector<uint64_t>& ranks) {
  const std::vector<RankBounds> bounds = OracleBounds(slices);
  WindowCutResult result;
  result.classes = OracleClasses(slices);
  for (size_t i = 0; i < slices.size(); ++i) {
    if (std::any_of(ranks.begin(), ranks.end(), [&](uint64_t rank) {
          return bounds[i].min_rank <= rank && rank <= bounds[i].max_rank;
        })) {
      result.candidates.push_back(i);
      result.candidate_event_count += slices[i].count;
    }
  }
  for (uint64_t rank : ranks) {
    RankSelection sel{rank, 0};
    for (size_t i = 0; i < slices.size(); ++i) {
      if (bounds[i].max_rank < rank &&
          !std::binary_search(result.candidates.begin(), result.candidates.end(), i)) {
        sel.below_count += slices[i].count;
      }
    }
    result.selections.push_back(sel);
  }
  return result;
}

/// The paper's Algorithm 1 as written, on the oracle's bounds: order slices
/// by their start position, scan from the left edge adding slices whose
/// possible range reaches the target, break once a slice provably starts
/// past it; then the mirrored scan from the right edge.
Result<WindowCutResult> SelectTwoSidedScan(const std::vector<SliceSynopsis>& slices,
                                           uint64_t global_size,
                                           uint64_t target_rank) {
  if (target_rank < 1 || target_rank > global_size) {
    return Status::OutOfRange("target rank outside the window");
  }
  const std::vector<RankBounds> bounds = OracleBounds(slices);

  // Order by possible start position (Pos_start), then by end for the
  // mirrored scan (Pos_end).
  std::vector<size_t> by_start(slices.size()), by_end(slices.size());
  std::iota(by_start.begin(), by_start.end(), 0);
  by_end = by_start;
  std::sort(by_start.begin(), by_start.end(), [&](size_t a, size_t b) {
    return bounds[a].min_rank < bounds[b].min_rank;
  });
  std::sort(by_end.begin(), by_end.end(), [&](size_t a, size_t b) {
    return bounds[a].max_rank > bounds[b].max_rank;
  });

  std::vector<bool> is_candidate(slices.size(), false);
  // Lines 3-9: increasing Pos_start; stop after crossing the quantile
  // position — every later slice provably starts above the target rank.
  for (size_t i : by_start) {
    if (bounds[i].min_rank > target_rank) break;
    if (bounds[i].max_rank >= target_rank) is_candidate[i] = true;
  }
  // Lines 10-16: decreasing Pos_end; stop once slices provably end below the
  // target rank. (With sound rank intervals this mirrors the left scan; the
  // paper keeps both directions, and so does this transcription.)
  for (size_t i : by_end) {
    if (bounds[i].max_rank < target_rank) break;
    if (bounds[i].min_rank <= target_rank) is_candidate[i] = true;
  }

  WindowCutResult result;
  RankSelection sel;
  sel.rank = target_rank;
  for (size_t i = 0; i < slices.size(); ++i) {
    if (is_candidate[i]) {
      result.candidates.push_back(i);
      result.candidate_event_count += slices[i].count;
    } else if (bounds[i].max_rank < target_rank) {
      sel.below_count += slices[i].count;
    }
  }
  result.selections.push_back(sel);
  return result;
}

/// \p m slices whose endpoints are drawn from six shared events, so firsts
/// and lasts tie across slices, on nodes 1..4 in no order; about one in four
/// is a one-event slice.
std::vector<SliceSynopsis> TiedSlices(Rng* rng, size_t m) {
  std::vector<Event> pool;
  for (uint32_t i = 0; i < 6; ++i) pool.push_back(Ev(i / 2, 1, i));
  std::vector<SliceSynopsis> slices;
  for (size_t k = 0; k < m; ++k) {
    SliceSynopsis s;
    s.node = static_cast<NodeId>(rng->UniformInt(1, 4));
    s.index = static_cast<uint32_t>(k);
    s.first = pool[static_cast<size_t>(rng->UniformInt(0, 5))];
    s.last = pool[static_cast<size_t>(rng->UniformInt(0, 5))];
    if (s.last < s.first) std::swap(s.first, s.last);
    if (rng->UniformInt(0, 3) == 0) {
      s.last = s.first;
      s.count = 1;
    } else {
      s.count = static_cast<uint64_t>(rng->UniformInt(1, 6));
    }
    slices.push_back(s);
  }
  return slices;
}

TEST(WindowCut, MatchesBruteForceOnTiedEndpoints) {
  Rng rng(2718);
  WindowCutScratch scratch;
  WindowCutResult got;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t m = 1 + static_cast<size_t>(rng.UniformInt(0, 11));
    const std::vector<SliceSynopsis> slices = TiedSlices(&rng, m);
    uint64_t total = 0;
    for (const SliceSynopsis& s : slices) total += s.count;
    std::vector<uint64_t> ranks;
    for (int64_t r = rng.UniformInt(1, 3); r > 0; --r) {
      ranks.push_back(static_cast<uint64_t>(rng.UniformInt(1, total)));
    }
    ASSERT_TRUE(
        WindowCut::SelectMultiInto(slices, total, ranks, &scratch, &got).ok());
    const std::vector<RankBounds> bounds = OracleBounds(slices);
    const WindowCutResult want = OracleCut(slices, ranks);
    for (size_t i = 0; i < m; ++i) {
      ASSERT_EQ(scratch.bounds[i].min_rank, bounds[i].min_rank)
          << "trial " << trial << " slice " << i;
      ASSERT_EQ(scratch.bounds[i].max_rank, bounds[i].max_rank)
          << "trial " << trial << " slice " << i;
    }
    ASSERT_EQ(got.classes.separate, want.classes.separate) << "trial " << trial;
    ASSERT_EQ(got.classes.compound, want.classes.compound) << "trial " << trial;
    ASSERT_EQ(got.classes.cover, want.classes.cover) << "trial " << trial;
    ASSERT_EQ(got.candidates, want.candidates) << "trial " << trial;
    ASSERT_EQ(got.candidate_event_count, want.candidate_event_count);
    ASSERT_EQ(got.selections.size(), want.selections.size());
    for (size_t r = 0; r < ranks.size(); ++r) {
      ASSERT_EQ(got.selections[r].rank, want.selections[r].rank);
      ASSERT_EQ(got.selections[r].below_count, want.selections[r].below_count)
          << "trial " << trial << " rank " << ranks[r];
    }
  }
}

TEST(WindowCut, SliceCountsThatWrapAreRejected) {
  // 2^63 + (2^63 + 4) wraps to 4: the sum must not pass for a 4-event window.
  const uint64_t half = uint64_t{1} << 63;
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 9, half),
                                       Syn(1, 1, 10, 19, half + 4)};
  EXPECT_FALSE(WindowCut::SelectMulti(slices, 4, {2}).ok());
  EXPECT_FALSE(WindowCut::SelectNaiveOverlap(slices, 4, 2).ok());
}

// --- Brute-force property check --------------------------------------------

struct OracleParam {
  uint64_t seed;
  size_t num_nodes;
  uint64_t gamma;
  double spread;       // value range per node
  double node_offset;  // shifts node ranges to control overlap
  int64_t duplicates;  // 0 = continuous values; >0 = draw from few values
};

// The test names are gtest's byte dump of the whole struct, so it must have
// no padding: padding bytes are indeterminate and would make the names
// differ from one run to the next.
static_assert(sizeof(OracleParam) == 6 * 8, "OracleParam must not be padded");

class WindowCutOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(WindowCutOracle, SelectionIsExactForEveryRank) {
  const auto& p = GetParam();
  Rng rng(p.seed);

  // Random local windows, one per node.
  std::vector<std::vector<Event>> windows(p.num_nodes);
  std::vector<Event> global;
  for (size_t n = 0; n < p.num_nodes; ++n) {
    size_t count = 20 + static_cast<size_t>(rng.UniformInt(0, 60));
    double base = p.node_offset * static_cast<double>(n);
    for (uint32_t i = 0; i < count; ++i) {
      double v = p.duplicates
                     ? base + static_cast<double>(rng.UniformInt(0, p.duplicates))
                     : base + rng.Uniform(0, p.spread);
      windows[n].push_back(Event{v, static_cast<TimestampUs>(i),
                                 static_cast<NodeId>(n + 1), i});
    }
    std::sort(windows[n].begin(), windows[n].end());
    global.insert(global.end(), windows[n].begin(), windows[n].end());
  }
  std::sort(global.begin(), global.end());
  uint64_t l_g = global.size();

  // Cut every window and flatten the synopses.
  std::vector<SliceSynopsis> slices;
  for (size_t n = 0; n < p.num_nodes; ++n) {
    auto cut = CutIntoSlices(windows[n], static_cast<NodeId>(n + 1), p.gamma);
    ASSERT_TRUE(cut.ok());
    slices.insert(slices.end(), cut->begin(), cut->end());
  }

  for (uint64_t rank = 1; rank <= l_g; ++rank) {
    auto result = WindowCut::SelectMulti(slices, l_g, {rank});
    ASSERT_TRUE(result.ok()) << result.status();

    // Gather candidate events exactly as the root would (per-slice ranges).
    std::vector<Event> candidate_events;
    for (size_t flat : result->candidates) {
      const SliceSynopsis& s = slices[flat];
      const auto& window = windows[s.node - 1];
      auto [begin, end] = SliceEventRange(window.size(), p.gamma, s.index);
      candidate_events.insert(candidate_events.end(), window.begin() + begin,
                              window.begin() + end);
    }
    std::sort(candidate_events.begin(), candidate_events.end());
    ASSERT_EQ(candidate_events.size(), result->candidate_event_count);

    uint64_t below = result->selections[0].below_count;
    ASSERT_GE(rank, below + 1) << "rank " << rank;
    ASSERT_LE(rank - below, candidate_events.size()) << "rank " << rank;
    EXPECT_EQ(candidate_events[rank - below - 1], global[rank - 1])
        << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OverlapPatterns, WindowCutOracle,
    ::testing::Values(
        OracleParam{101, 2, 5, 100, 0, 0},      // full overlap
        OracleParam{102, 2, 5, 100, 1000, 0},   // disjoint ranges
        OracleParam{103, 3, 7, 100, 50, 0},     // partial overlap
        OracleParam{104, 4, 3, 100, 10, 0},     // dense chains
        OracleParam{105, 2, 5, 100, 0, 5},      // heavy value duplicates
        OracleParam{106, 5, 2, 50, 25, 3},      // min gamma + duplicates
        OracleParam{107, 1, 10, 100, 0, 0},     // single node
        OracleParam{108, 6, 64, 100, 0, 0},     // gamma > window sizes
        OracleParam{109, 3, 4, 1, 0, 0},        // near-identical tiny ranges
        OracleParam{110, 4, 6, 100, 99, 1}));   // constant values per node

TEST_P(WindowCutOracle, TwoSidedScanMatchesSelect) {
  // The literal Algorithm-1 transcription, on the brute-force bounds, must
  // pick exactly the same candidates and below counts as the window cut.
  const auto& p = GetParam();
  Rng rng(p.seed + 9000);
  std::vector<SliceSynopsis> slices;
  uint64_t l_g = 0;
  for (size_t n = 0; n < p.num_nodes; ++n) {
    size_t count = 10 + static_cast<size_t>(rng.UniformInt(0, 30));
    std::vector<Event> window;
    double base = p.node_offset * static_cast<double>(n);
    for (uint32_t i = 0; i < count; ++i) {
      double v = p.duplicates
                     ? base + static_cast<double>(rng.UniformInt(0, p.duplicates))
                     : base + rng.Uniform(0, p.spread);
      window.push_back(Event{v, static_cast<TimestampUs>(i),
                             static_cast<NodeId>(n + 1), i});
    }
    std::sort(window.begin(), window.end());
    auto cut = CutIntoSlices(window, static_cast<NodeId>(n + 1), p.gamma);
    ASSERT_TRUE(cut.ok());
    slices.insert(slices.end(), cut->begin(), cut->end());
    l_g += count;
  }
  for (uint64_t rank = 1; rank <= l_g; rank += 3) {
    auto a = WindowCut::SelectMulti(slices, l_g, {rank});
    auto b = SelectTwoSidedScan(slices, l_g, rank);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->candidates, b->candidates) << "rank " << rank;
    EXPECT_EQ(a->selections[0].below_count, b->selections[0].below_count)
        << "rank " << rank;
    EXPECT_EQ(a->candidate_event_count, b->candidate_event_count);
  }
}

TEST_P(WindowCutOracle, NaiveSelectionIsAlsoExact) {
  const auto& p = GetParam();
  Rng rng(p.seed + 5000);
  std::vector<std::vector<Event>> windows(p.num_nodes);
  std::vector<Event> global;
  for (size_t n = 0; n < p.num_nodes; ++n) {
    size_t count = 20 + static_cast<size_t>(rng.UniformInt(0, 40));
    double base = p.node_offset * static_cast<double>(n);
    for (uint32_t i = 0; i < count; ++i) {
      double v = p.duplicates
                     ? base + static_cast<double>(rng.UniformInt(0, p.duplicates))
                     : base + rng.Uniform(0, p.spread);
      windows[n].push_back(Event{v, static_cast<TimestampUs>(i),
                                 static_cast<NodeId>(n + 1), i});
    }
    std::sort(windows[n].begin(), windows[n].end());
    global.insert(global.end(), windows[n].begin(), windows[n].end());
  }
  std::sort(global.begin(), global.end());
  uint64_t l_g = global.size();

  std::vector<SliceSynopsis> slices;
  for (size_t n = 0; n < p.num_nodes; ++n) {
    auto cut = CutIntoSlices(windows[n], static_cast<NodeId>(n + 1), p.gamma);
    ASSERT_TRUE(cut.ok());
    slices.insert(slices.end(), cut->begin(), cut->end());
  }

  for (uint64_t rank = 1; rank <= l_g; rank += 7) {
    auto result = WindowCut::SelectNaiveOverlap(slices, l_g, rank);
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<Event> candidate_events;
    for (size_t flat : result->candidates) {
      const SliceSynopsis& s = slices[flat];
      const auto& window = windows[s.node - 1];
      auto [begin, end] = SliceEventRange(window.size(), p.gamma, s.index);
      candidate_events.insert(candidate_events.end(), window.begin() + begin,
                              window.begin() + end);
    }
    std::sort(candidate_events.begin(), candidate_events.end());
    uint64_t below = result->selections[0].below_count;
    ASSERT_GE(rank, below + 1);
    ASSERT_LE(rank - below, candidate_events.size());
    EXPECT_EQ(candidate_events[rank - below - 1], global[rank - 1])
        << "rank " << rank;
  }
}

TEST(WindowCut, NaivePivotGuardUnreachableOnValidInput) {
  // Regression for the pivot fallback: SelectNaiveOverlap once defaulted to
  // slice 0 when its scan "never" reached the target rank. Over valid
  // synopses (counts summing to l_G without wrapping, ranks in [1, l_G]) the
  // cumulative count reaches l_G by the last slice, so the walk always lands
  // on a pivot — exercise every rank densely over randomized heavy-overlap
  // layouts to prove it.
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    size_t num_slices = 1 + static_cast<size_t>(rng.UniformInt(0, 11));
    std::vector<SliceSynopsis> slices;
    uint64_t l_g = 0;
    for (size_t i = 0; i < num_slices; ++i) {
      // Overlapping value intervals (shared [lo, hi) draws) with random,
      // sometimes-tiny counts; degenerate first==last slices included.
      double lo = rng.Uniform(0, 50);
      double hi = rng.UniformInt(0, 3) == 0 ? lo : lo + rng.Uniform(0, 100);
      uint64_t count = static_cast<uint64_t>(rng.UniformInt(1, 30));
      slices.push_back(Syn(static_cast<NodeId>(i % 3 + 1),
                           static_cast<uint32_t>(i), std::min(lo, hi),
                           std::max(lo, hi), count));
      l_g += count;
    }
    for (uint64_t rank = 1; rank <= l_g; ++rank) {
      auto result = WindowCut::SelectNaiveOverlap(slices, l_g, rank);
      ASSERT_TRUE(result.ok())
          << "trial " << trial << " rank " << rank << ": " << result.status();
      ASSERT_FALSE(result->candidates.empty());
    }
  }
}

}  // namespace
}  // namespace dema::core
