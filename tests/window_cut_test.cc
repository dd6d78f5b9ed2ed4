// Unit and property tests for the window-cut algorithm: candidate soundness,
// rank-interval bounds, slice classification, and exact selection against a
// brute-force oracle over adversarial overlap patterns.

#include <gtest/gtest.h>

#include <algorithm>

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
  auto result = WindowCut::Select(slices, 30, 15);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_EQ(result->candidates[0], 1u);
  EXPECT_EQ(result->selections[0].below_count, 10u);
  EXPECT_EQ(result->candidate_event_count, 10u);
}

TEST(WindowCut, BoundaryRanksStayWithinOneSlice) {
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 9, 10), Syn(2, 0, 20, 29, 10)};
  auto first = WindowCut::Select(slices, 20, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->candidates, std::vector<size_t>{0});
  auto last = WindowCut::Select(slices, 20, 20);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->candidates, std::vector<size_t>{1});
  EXPECT_EQ(last->selections[0].below_count, 10u);
}

TEST(WindowCut, OverlapForcesBothCandidates) {
  // Two interleaved slices: the median could sit in either.
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 100, 10), Syn(2, 0, 50, 150, 10)};
  auto result = WindowCut::Select(slices, 20, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 2u);
  EXPECT_EQ(result->selections[0].below_count, 0u);
}

TEST(WindowCut, CoverSliceInsideCandidateIsIncluded) {
  // A small slice fully inside the big one around the rank must be fetched;
  // its events could land anywhere inside the cover range (Section 3.2 iii).
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 1000, 50),
                                       Syn(2, 0, 400, 600, 10)};
  auto result = WindowCut::Select(slices, 60, 30);
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
  auto result = WindowCut::Select(slices, 24, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates, std::vector<size_t>{0});
  EXPECT_EQ(result->selections[0].below_count, 0u);
}

TEST(WindowCut, RankBoundsAreSane) {
  std::vector<SliceSynopsis> slices = {Syn(1, 0, 0, 100, 10), Syn(2, 0, 50, 150, 10),
                                       Syn(2, 1, 200, 300, 5)};
  auto bounds = WindowCut::ComputeRankBounds(slices);
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
  EXPECT_FALSE(WindowCut::Select(slices, 11, 5).ok());   // size mismatch
  EXPECT_FALSE(WindowCut::Select(slices, 10, 0).ok());   // rank below 1
  EXPECT_FALSE(WindowCut::Select(slices, 10, 11).ok());  // rank above size
  EXPECT_FALSE(WindowCut::Select({}, 0, 1).ok());        // empty window
  EXPECT_FALSE(WindowCut::SelectMulti(slices, 10, {}).ok());
  auto bad = Syn(1, 0, 9, 0, 10);  // last < first
  EXPECT_FALSE(WindowCut::Select({bad}, 10, 5).ok());
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
  auto counts = WindowCut::ClassifySlices(slices);
  EXPECT_EQ(counts.cover, 3u);     // b2, b3, a4
  EXPECT_EQ(counts.compound, 4u);  // a2+b1, a3+b4
  EXPECT_EQ(counts.separate, 2u);  // a1, b5
}

TEST(WindowCut, ClassifyEmptyAndSingle) {
  EXPECT_EQ(WindowCut::ClassifySlices({}).separate, 0u);
  auto counts = WindowCut::ClassifySlices({Syn(1, 0, 0, 10, 5)});
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
  auto smart = WindowCut::Select(slices, 100, 50);
  auto naive = WindowCut::SelectNaiveOverlap(slices, 100, 50);
  ASSERT_TRUE(smart.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_GE(naive->candidate_event_count, smart->candidate_event_count);
  EXPECT_EQ(naive->candidate_event_count, 100u);  // full chain
  EXPECT_LT(smart->candidate_event_count, 100u);
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
    auto result = WindowCut::Select(slices, l_g, rank);
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
  // The literal Algorithm-1 transcription must pick exactly the same
  // candidates and below counts as the rank-interval formulation.
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
    auto a = WindowCut::Select(slices, l_g, rank);
    auto b = WindowCut::SelectTwoSidedScan(slices, l_g, rank);
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
  // Regression for the pivot fallback: SelectNaiveOverlap used to default to
  // slice 0 when its scan "never" reached the target rank and now returns
  // Internal instead. Over valid synopses (counts summing to l_G, ranks in
  // [1, l_G]) the cumulative count reaches l_G by the last slice, so the
  // guard must never fire — exercise every rank densely over randomized
  // heavy-overlap layouts to prove it.
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
