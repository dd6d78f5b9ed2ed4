// Unit tests for the streaming substrate: window assignment, quantile ranks,
// the event sort and the close-time slice order, the window manager, and the
// loser-tree merger.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/serializer.h"
#include "stream/event_sort.h"
#include "stream/merge.h"
#include "stream/quantile.h"
#include "stream/window.h"
#include "stream/window_manager.h"

namespace dema::stream {
namespace {

TEST(WindowAssigner, MapsTimesToWindows) {
  TumblingWindowAssigner a(SecondsUs(1));
  EXPECT_EQ(a.AssignWindow(0), 0u);
  EXPECT_EQ(a.AssignWindow(999'999), 0u);
  EXPECT_EQ(a.AssignWindow(1'000'000), 1u);
  EXPECT_EQ(a.WindowStart(3), 3'000'000);
  EXPECT_EQ(a.WindowEnd(3), 4'000'000);
}

TEST(QuantileRank, PaperDefinition) {
  // Pos(q) = ceil(q * n), clamped to [1, n].
  EXPECT_EQ(QuantileRank(0.5, 10), 5u);
  EXPECT_EQ(QuantileRank(0.5, 11), 6u);
  EXPECT_EQ(QuantileRank(0.25, 4), 1u);
  EXPECT_EQ(QuantileRank(1.0, 7), 7u);
  EXPECT_EQ(QuantileRank(0.001, 10), 1u);
  EXPECT_EQ(QuantileRank(0.5, 0), 0u);
}

TEST(ExactQuantile, SortedEventsSelection) {
  std::vector<Event> sorted;
  for (int i = 1; i <= 100; ++i) {
    sorted.push_back(Event{static_cast<double>(i), 0, 1, static_cast<uint32_t>(i)});
  }
  auto median = ExactQuantileSorted(sorted, 0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_DOUBLE_EQ(median->value, 50);
  auto max = ExactQuantileSorted(sorted, 1.0);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max->value, 100);
}

TEST(ExactQuantile, RejectsBadInput) {
  EXPECT_FALSE(ExactQuantileSorted({}, 0.5).ok());
  std::vector<Event> one = {Event{1, 0, 0, 0}};
  EXPECT_FALSE(ExactQuantileSorted(one, 0.0).ok());
  EXPECT_FALSE(ExactQuantileSorted(one, 1.5).ok());
  EXPECT_FALSE(ExactQuantileValues({}, 0.5).ok());
}

TEST(ExactQuantile, ValuesMatchesFullSort) {
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 999; ++i) values.push_back(rng.Uniform(0, 1000));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.01, 0.25, 0.5, 0.77, 1.0}) {
    auto got = ExactQuantileValues(values, q);
    ASSERT_TRUE(got.ok());
    EXPECT_DOUBLE_EQ(*got, sorted[QuantileRank(q, sorted.size()) - 1]);
  }
}

TEST(WindowManager, ClosedWindowHoldsArrivalOrderAndSizesTheNext) {
  // Both consumers order a closed window themselves, so it must hold exactly
  // the events added, as they arrived.
  Rng rng(4);
  WindowManager wm(SecondsUs(1));
  std::vector<Event> events;
  for (uint32_t i = 0; i < 500; ++i) {
    Event e{rng.Uniform(0, 100), rng.UniformInt(0, SecondsUs(1) - 1), 1, i};
    events.push_back(e);
    ASSERT_TRUE(wm.OnEvent(e));
  }
  EXPECT_EQ(wm.buffered_events(), 500u);
  auto closed = wm.AdvanceWatermark(SecondsUs(1));
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].events, events);
  EXPECT_FALSE(std::is_sorted(events.begin(), events.end()));

  // The next window starts with room for as many events as the last one.
  EXPECT_TRUE(wm.OnEvent(Event{1, SecondsUs(1), 1, 500}));
  closed = wm.AdvanceWatermark(SecondsUs(2));
  ASSERT_EQ(closed.size(), 1u);
  ASSERT_EQ(closed[0].events.size(), 1u);
  EXPECT_GE(closed[0].events.capacity(), 500u);
}

TEST(WindowManager, ClosesWindowsInOrder) {
  WindowManager wm(SecondsUs(1));
  wm.OnEvent(Event{1, 100, 1, 0});
  wm.OnEvent(Event{2, SecondsUs(1) + 5, 1, 1});
  wm.OnEvent(Event{3, SecondsUs(2) + 5, 1, 2});
  EXPECT_EQ(wm.open_windows(), 3u);
  EXPECT_EQ(wm.buffered_events(), 3u);

  auto closed = wm.AdvanceWatermark(SecondsUs(2));
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].id, 0u);
  EXPECT_EQ(closed[1].id, 1u);
  EXPECT_EQ(closed[0].events.size(), 1u);
  EXPECT_EQ(wm.open_windows(), 1u);
}

TEST(WindowManager, DropsLateEvents) {
  WindowManager wm(SecondsUs(1));
  wm.AdvanceWatermark(SecondsUs(5));
  EXPECT_FALSE(wm.OnEvent(Event{1, 100, 1, 0}));
  EXPECT_EQ(wm.late_events(), 1u);
  EXPECT_TRUE(wm.OnEvent(Event{1, SecondsUs(5) + 1, 1, 1}));
}

TEST(WindowManager, WatermarkNeverRegresses) {
  WindowManager wm(SecondsUs(1));
  wm.AdvanceWatermark(SecondsUs(3));
  auto closed = wm.AdvanceWatermark(SecondsUs(2));
  EXPECT_TRUE(closed.empty());
  EXPECT_EQ(wm.watermark_us(), SecondsUs(3));
}

// ---------------------------------------------------------------------------
// SortEvents must order exactly like std::sort; OrderSlices must put exactly
// std::sort's events in each slice, with std::sort's first and last event.

/// Events whose (timestamp, node, seq) ids are pairwise distinct but drawn
/// from a small grid, so equal values tie on each id field in turn. With
/// distinct ids no two events are equivalent under `operator<`, so
/// `std::sort`'s output is unique and a bytewise comparison is fair.
template <typename ValueFn>
std::vector<Event> GridEvents(Rng* rng, size_t n, ValueFn value) {
  constexpr uint64_t kTimestamps = 16, kNodes = 8, kSeqs = 64;
  std::vector<uint64_t> ids(kTimestamps * kNodes * kSeqs);
  for (uint64_t i = 0; i < ids.size(); ++i) ids[i] = i;
  // Fisher–Yates over Rng's own draws, so the order does not depend on the
  // standard library's shuffle.
  for (size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng->UniformInt(0, static_cast<int64_t>(i))]);
  }
  std::vector<Event> events;
  for (size_t i = 0; i < n; ++i) {
    // Past the grid, ids repeat with a fresh seq block, staying distinct.
    const uint64_t id = ids[i % ids.size()];
    const uint64_t lap = i / ids.size();
    events.push_back(Event{value(), static_cast<TimestampUs>(id % kTimestamps),
                           static_cast<NodeId>(id / kTimestamps % kNodes),
                           static_cast<uint32_t>(id / (kTimestamps * kNodes) +
                                                 lap * kSeqs)});
  }
  return events;
}

/// A uniformly random finite double over the whole bit space: every
/// exponent, both signs, subnormals included.
double AnyFiniteDouble(Rng* rng) {
  while (true) {
    const uint64_t bits = rng->NextU64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) return v;
  }
}

/// Asserts that \p actual[begin, end) holds the same bytes as \p expected.
void ExpectSameRange(const std::vector<Event>& actual,
                     const std::vector<Event>& expected, size_t begin,
                     size_t end, const std::string& what) {
  for (size_t i = begin; i < end; ++i) {
    ASSERT_EQ(std::memcmp(&actual[i], &expected[i], sizeof(Event)), 0)
        << what << ": first difference at " << i << " of " << actual.size()
        << ", got " << actual[i] << " want " << expected[i];
  }
}

/// Sorts a copy of \p events both ways and asserts the same bytes.
void ExpectSortsLikeStdSort(const std::vector<Event>& events,
                            const std::string& what) {
  std::vector<Event> expected = events;
  std::sort(expected.begin(), expected.end());
  std::vector<Event> actual = events;
  SortEvents(actual);
  ASSERT_EQ(actual.size(), expected.size()) << what;
  ExpectSameRange(actual, expected, 0, expected.size(), what);
}

/// Slice-orders a copy of \p events for each of a range of γ and asserts,
/// per slice, that its first and last event are `std::sort`'s, that it holds
/// exactly `std::sort`'s events, and that `SortServedSlice` on it (what a
/// serve does) yields `std::sort`'s bytes.
void ExpectSliceOrdersLikeStdSort(const std::vector<Event>& events,
                                  const std::string& what) {
  std::vector<Event> expected = events;
  std::sort(expected.begin(), expected.end());
  const uint64_t n = events.size();
  // The smallest slices, mid-sized ones, and slices around the window's
  // size (n − 1 wraps to a huge γ when the window is empty).
  for (uint64_t gamma : {uint64_t{2}, uint64_t{3}, uint64_t{166},
                         uint64_t{2000}, n - 1, n, n + 1}) {
    if (gamma < 2) continue;
    const std::string tag = what + " gamma " + std::to_string(gamma);
    std::vector<Event> actual = events;
    OrderSlices(&actual, gamma);
    ASSERT_EQ(actual.size(), expected.size()) << tag;
    for (uint64_t begin = 0; begin < n; begin += gamma) {
      const uint64_t end = begin + std::min(gamma, n - begin);
      ExpectSameRange(actual, expected, begin, begin + 1, tag + " first");
      ExpectSameRange(actual, expected, end - 1, end, tag + " last");
      if (::testing::Test::HasFatalFailure()) return;
      std::vector<Event> slice(actual.begin() + begin, actual.begin() + end);
      std::sort(slice.begin(), slice.end());
      ASSERT_TRUE(std::equal(slice.begin(), slice.end(),
                             expected.begin() + begin))
          << tag << ": slice at " << begin << " holds other events";
      SortServedSlice({actual.data() + begin, end - begin});
    }
    ExpectSameRange(actual, expected, 0, n, tag + " served");
  }
}

/// Sizes on both sides of the std::sort cutoff, plus radix-sized windows.
std::vector<size_t> SortSizes() {
  return {0,    1,    2,    kRadixSortMinEvents - 1, kRadixSortMinEvents,
          kRadixSortMinEvents + 1, 1000, 4096};
}

/// A check of one window of events against `std::sort`.
using SortCheck = void (*)(const std::vector<Event>&, const std::string&);

// Windows every close-time ordering is checked on, each family once through
// `SortEvents` (EventSort.*) and once through `OrderSlices` (SliceOrder.*).

void CheckDuplicateValues(SortCheck check) {
  const double kPool[] = {-1.5, 0.25, 7, std::nextafter(7.0, 8.0), 1e-300};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    for (size_t n : SortSizes()) {
      auto events = GridEvents(&rng, n, [&] {
        return kPool[rng.UniformInt(0, std::size(kPool) - 1)];
      });
      check(events, "duplicates seed " + std::to_string(seed));
    }
  }
}

void CheckSignedZeros(SortCheck check) {
  // operator< treats -0.0 and +0.0 as one value, so their events interleave
  // by timestamp, node and seq — whichever zero each carries.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    for (size_t n : SortSizes()) {
      auto events = GridEvents(&rng, n, [&] {
        const int64_t pick = rng.UniformInt(0, 9);
        if (pick < 4) return -0.0;
        if (pick < 8) return 0.0;
        return pick == 8 ? -std::numeric_limits<double>::denorm_min()
                         : std::numeric_limits<double>::denorm_min();
      });
      check(events, "zeros seed " + std::to_string(seed));
    }
  }
}

void CheckExtremeAndSubnormalValues(SortCheck check) {
  const double kMax = std::numeric_limits<double>::max();
  const double kMin = std::numeric_limits<double>::min();
  const double kDenorm = std::numeric_limits<double>::denorm_min();
  const double kPool[] = {-kMax, kMax,        -kMin,       kMin,   kMin / 3,
                          -kMin / 3, kDenorm, -kDenorm,    -0.0,   0.0,
                          -1,        1,       std::nextafter(kMax, 0.0)};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    for (size_t n : SortSizes()) {
      auto events = GridEvents(&rng, n, [&] {
        // Half from the edge cases, half anywhere in the finite range.
        if (rng.Bernoulli(0.5)) return AnyFiniteDouble(&rng);
        return kPool[rng.UniformInt(0, std::size(kPool) - 1)];
      });
      check(events, "extremes seed " + std::to_string(seed));
    }
  }
}

void CheckAllEqualPresortedAndReversed(SortCheck check) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    for (size_t n : SortSizes()) {
      const std::string tag = " seed " + std::to_string(seed);
      const double same = rng.Uniform(-100, 100);
      check(GridEvents(&rng, n, [&] { return same; }), "all-equal" + tag);
      auto events =
          GridEvents(&rng, n, [&] { return std::round(rng.Normal(0, 50)); });
      std::sort(events.begin(), events.end());
      check(events, "presorted" + tag);
      std::reverse(events.begin(), events.end());
      check(events, "reversed" + tag);
    }
  }
}

void CheckRandomWalkWindows(SortCheck check) {
  // The shape a local closes in the paper's setting: a 20,000-event sensor
  // walk, with the thread's reused buffers going from large to small.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    double pos = 5'000;
    for (size_t n : {size_t{20'000}, size_t{3'000}, size_t{300}}) {
      auto events = GridEvents(&rng, n, [&] {
        pos = std::clamp(pos + rng.Normal(0, 25), 0.0, 10'000.0);
        return pos;
      });
      check(events, "walk seed " + std::to_string(seed));
    }
  }
}

void CheckHeavyDuplicatesAndAnOutlier(SortCheck check) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    for (size_t n : SortSizes()) {
      const std::string tag = " seed " + std::to_string(seed);
      // Zipf-style: value k with probability ∝ 1/k², so a few values hold
      // most events and one bucket of equal keys straddles many slices.
      check(GridEvents(&rng, n,
                       [&] {
                         return std::floor(1 / std::sqrt(rng.Uniform(1e-6, 1)));
                       }),
            "zipf" + tag);
      // One 1e300 among ordinary values: the key range is huge, so almost
      // every event lands in the first bucket.
      const size_t outlier = n == 0 ? 0 : rng.UniformInt(0, n - 1);
      size_t i = 0;
      check(GridEvents(&rng, n,
                       [&] {
                         return i++ == outlier ? 1e300 : rng.Uniform(0, 100);
                       }),
            "outlier" + tag);
    }
  }
}

/// Runs \p order on many windows from 4 threads at once and counts, per
/// thread, the windows whose result differed from \p expect.
template <typename Order, typename Expect>
std::vector<int> ConcurrentMismatches(Order order, Expect expect) {
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([t, &mismatches, order, expect] {
      Rng rng(100 + t);
      for (int round = 0; round < 20; ++round) {
        auto events =
            GridEvents(&rng, 2'000, [&] { return rng.Uniform(-1, 1); });
        auto sorted = events;
        std::sort(sorted.begin(), sorted.end());
        order(&events);
        if (!expect(events, sorted)) ++mismatches[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return mismatches;
}

TEST(EventSort, DuplicateValuesTieBreakOnTimestampNodeAndSeq) {
  CheckDuplicateValues(ExpectSortsLikeStdSort);
}

TEST(EventSort, SignedZerosOrderAsEqualValues) {
  CheckSignedZeros(ExpectSortsLikeStdSort);
}

TEST(EventSort, ExtremeAndSubnormalValues) {
  CheckExtremeAndSubnormalValues(ExpectSortsLikeStdSort);
}

TEST(EventSort, AllEqualPresortedAndReversedWindows) {
  CheckAllEqualPresortedAndReversed(ExpectSortsLikeStdSort);
}

TEST(EventSort, RandomWalkWindowsOfTheBenchmarkSize) {
  CheckRandomWalkWindows(ExpectSortsLikeStdSort);
}

TEST(EventSort, HeavyDuplicatesAndAnOutlier) {
  CheckHeavyDuplicatesAndAnOutlier(ExpectSortsLikeStdSort);
}

TEST(EventSort, ConcurrentCallersKeepSeparateScratch) {
  // Locals on their own threads of one process (a loopback TCP cluster)
  // sort windows at the same time; each thread's reused buffers are its own.
  auto mismatches = ConcurrentMismatches(
      [](std::vector<Event>* events) { SortEvents(*events); },
      [](const std::vector<Event>& got, const std::vector<Event>& sorted) {
        return got == sorted;
      });
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(SliceOrder, DuplicateValuesTieBreakOnTimestampNodeAndSeq) {
  CheckDuplicateValues(ExpectSliceOrdersLikeStdSort);
}

TEST(SliceOrder, SignedZerosOrderAsEqualValues) {
  CheckSignedZeros(ExpectSliceOrdersLikeStdSort);
}

TEST(SliceOrder, ExtremeAndSubnormalValues) {
  CheckExtremeAndSubnormalValues(ExpectSliceOrdersLikeStdSort);
}

TEST(SliceOrder, AllEqualPresortedAndReversedWindows) {
  CheckAllEqualPresortedAndReversed(ExpectSliceOrdersLikeStdSort);
}

TEST(SliceOrder, RandomWalkWindowsOfTheBenchmarkSize) {
  CheckRandomWalkWindows(ExpectSliceOrdersLikeStdSort);
}

TEST(SliceOrder, HeavyDuplicatesAndAnOutlier) {
  CheckHeavyDuplicatesAndAnOutlier(ExpectSliceOrdersLikeStdSort);
}

TEST(SliceOrder, ConcurrentCallersKeepSeparateScratch) {
  // Locals on their own threads slice-order windows at the same time, and a
  // large bucket's sort inside `OrderSlices` reuses the same per-thread
  // buffers.
  constexpr uint64_t kGamma = 166;
  auto mismatches = ConcurrentMismatches(
      [](std::vector<Event>* events) {
        OrderSlices(events, kGamma);
        for (size_t begin = 0; begin < events->size(); begin += kGamma) {
          const size_t end = std::min<size_t>(events->size(), begin + kGamma);
          SortEvents({events->data() + begin, end - begin});
        }
      },
      [](const std::vector<Event>& got, const std::vector<Event>& sorted) {
        return got == sorted;
      });
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(SliceOrder, ServedSliceSortFallsBackPastItsMoveBudget) {
  Rng rng(5);
  for (size_t n : {size_t{166}, size_t{2'000}}) {
    const std::string tag = "n " + std::to_string(n);
    auto expected = GridEvents(&rng, n, [&] { return rng.Uniform(0, 1); });
    std::sort(expected.begin(), expected.end());
    // A reversed slice needs n(n−1)/2 moves, far past the budget, so
    // `SortEvents` finishes it.
    std::vector<Event> slice(expected.rbegin(), expected.rend());
    EXPECT_FALSE(SortServedSlice(slice)) << tag;
    ExpectSameRange(slice, expected, 0, n, tag + " reversed");
    // A sorted slice (a re-serve) needs none.
    EXPECT_TRUE(SortServedSlice(slice)) << tag;
    ExpectSameRange(slice, expected, 0, n, tag + " re-served");
  }
  // The slices of a slice-ordered 20,000-event walk, star_inline's local
  // window, are in bucket order and finish inside the budget.
  double pos = 5'000;
  auto events = GridEvents(&rng, 20'000, [&] {
    pos = std::clamp(pos + rng.Normal(0, 25), 0.0, 10'000.0);
    return pos;
  });
  auto expected = events;
  std::sort(expected.begin(), expected.end());
  constexpr size_t kGamma = 166;
  OrderSlices(&events, kGamma);
  for (size_t begin = 0; begin < events.size(); begin += kGamma) {
    const size_t end = std::min(events.size(), begin + kGamma);
    EXPECT_TRUE(SortServedSlice({events.data() + begin, end - begin}))
        << "walk slice at " << begin;
  }
  ExpectSameRange(events, expected, 0, events.size(), "walk");
}

// ---------------------------------------------------------------------------
// WindowManager ingest: the tumbling fast path (one cached open window) must
// route every event exactly as per-event window assignment would.

/// What a window manager must produce: every accepted event goes to each
/// window `AssignWindows` names, in arrival order; windows close once the
/// watermark passes their end.
class ReferenceWindows {
 public:
  explicit ReferenceWindows(WindowSpec spec) : assigner_(spec) {}

  bool OnEvent(const Event& e) {
    if (e.timestamp < watermark_) return false;
    std::vector<WindowId> ids;
    assigner_.AssignWindows(e.timestamp, &ids);
    for (WindowId id : ids) open_[id].push_back(e);
    return true;
  }
  std::map<WindowId, std::vector<Event>> Advance(TimestampUs watermark) {
    std::map<WindowId, std::vector<Event>> closed;
    if (watermark <= watermark_) return closed;
    watermark_ = watermark;
    while (!open_.empty() &&
           assigner_.WindowEnd(open_.begin()->first) <= watermark_) {
      closed.insert(open_.extract(open_.begin()));
    }
    return closed;
  }

 private:
  SlidingWindowAssigner assigner_;
  TimestampUs watermark_ = 0;
  std::map<WindowId, std::vector<Event>> open_;
};

std::map<WindowId, std::vector<Event>> ById(std::vector<ClosedWindow> closed) {
  std::map<WindowId, std::vector<Event>> out;
  for (auto& w : closed) out[w.id] = std::move(w.events);
  return out;
}

/// A window manager and its reference, fed the same operations; every
/// operation's result must agree.
class IngestCheck {
 public:
  explicit IngestCheck(WindowSpec spec) : wm_(spec), ref_(spec) {}

  void Ingest(TimestampUs t, double value) {
    const Event e{value, t, 1, seq_++};
    EXPECT_EQ(wm_.OnEvent(e), ref_.OnEvent(e)) << "event at t=" << t;
  }
  void Watermark(TimestampUs w) {
    EXPECT_EQ(ById(wm_.AdvanceWatermark(w)), ref_.Advance(w))
        << "watermark " << w;
  }
  /// The end of the stream: a final watermark closes every window.
  void Flush() { Watermark(std::numeric_limits<TimestampUs>::max()); }
  /// Snapshots the manager (and the reference with it).
  void Checkpoint() {
    net::Writer w;
    wm_.SerializeTo(&w);
    snapshot_ = w.buffer();
    ref_snapshot_ = ref_;
  }
  /// Restores the manager in place from the last snapshot: every open
  /// window is rebuilt, so nothing cached may point at the old ones.
  void Rollback() {
    net::Reader r(snapshot_);
    ASSERT_TRUE(wm_.RestoreFrom(&r).ok());
    ref_ = ref_snapshot_;
  }
  WindowManager& wm() { return wm_; }

 private:
  WindowManager wm_;
  ReferenceWindows ref_;
  std::vector<uint8_t> snapshot_;
  ReferenceWindows ref_snapshot_{WindowSpec{}};
  uint32_t seq_ = 0;
};

TEST(WindowManagerIngest, EventsCrossingWindowBoundaries) {
  IngestCheck c(WindowSpec{10, 0});
  for (TimestampUs t : {0, 3, 9, 10, 11, 19, 20, 35, 36, 9}) c.Ingest(t, t);
  c.Watermark(10);
  c.Ingest(12, 1);
  c.Watermark(40);
  EXPECT_EQ(c.wm().open_windows(), 0u);
}

TEST(WindowManagerIngest, OlderOpenWindowAfterNewerOne) {
  IngestCheck c(WindowSpec{10, 0});
  c.Ingest(25, 1);  // window 2
  c.Ingest(5, 2);   // window 0, still open
  c.Ingest(26, 3);  // window 2 again
  c.Ingest(14, 4);  // window 1
  c.Ingest(6, 5);   // window 0 again
  c.Watermark(10);
  c.Ingest(7, 6);  // late now
  c.Ingest(15, 7);
  c.Watermark(30);
}

TEST(WindowManagerIngest, LateEventAfterWatermarkInsideTheOpenWindow) {
  IngestCheck c(WindowSpec{10, 0});
  c.Ingest(2, 1);
  c.Ingest(4, 2);
  c.Watermark(5);  // mid-window: window 0 stays open, [0, 5) is late
  c.Ingest(3, 3);
  c.Ingest(5, 4);
  // Window 0 is the cached hot window again; [0, 5) is still late.
  c.Ingest(4, 5);
  c.Ingest(9, 6);
  c.Watermark(10);
  EXPECT_EQ(c.wm().late_events(), 2u);
}

TEST(WindowManagerIngest, FlushThenMoreEvents) {
  IngestCheck c(WindowSpec{10, 0});
  c.Ingest(1, 1);
  c.Ingest(2, 2);
  c.Checkpoint();
  c.Flush();       // closes and erases the cached window ...
  c.Ingest(3, 3);  // ... so this late event never reaches it
  c.Rollback();    // the snapshot's watermark reopens window 0 ...
  c.Ingest(3, 4);  // ... rebuilt from the snapshot
  c.Ingest(4, 5);
  c.Ingest(12, 6);
  c.Flush();
}

TEST(WindowManagerIngest, RestoreInTheMiddleOfAWindow) {
  IngestCheck c(WindowSpec{10, 0});
  c.Ingest(1, 1);
  c.Ingest(2, 2);
  c.Checkpoint();
  c.Rollback();  // same contents, rebuilt buffers
  c.Ingest(3, 3);
  c.Ingest(13, 4);  // window 1 is now the cached one ...
  c.Rollback();    // ... and no longer open after the restore
  c.Ingest(14, 5);
  c.Ingest(4, 6);
  c.Watermark(20);
}

TEST(WindowManagerIngest, SlidingWindowsNeverTakeTheShortcut) {
  // Length 10, slide 3: most timestamps belong to several windows.
  IngestCheck c(WindowSpec{10, 3});
  for (TimestampUs t = 0; t < 30; ++t) c.Ingest(t, static_cast<double>(t % 7));
  c.Watermark(13);
  c.Ingest(12, 1);  // late
  c.Ingest(14, 2);
  c.Watermark(40);
}

TEST(WindowManagerIngest, RandomOperationSequencesMatchTheReference) {
  for (const WindowSpec spec : {WindowSpec{10, 0}, WindowSpec{10, 3}}) {
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      SCOPED_TRACE("slide " + std::to_string(spec.slide()) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      IngestCheck c(spec);
      c.Checkpoint();
      TimestampUs now = 0;
      TimestampUs watermark = 0;
      for (int op = 0; op < 400; ++op) {
        const int64_t pick = rng.UniformInt(0, 99);
        if (pick < 80) {
          // Mostly forward in time, some stragglers up to two windows back.
          now += rng.UniformInt(0, 3);
          c.Ingest(std::max<TimestampUs>(0, now - rng.UniformInt(0, 1) *
                                                     rng.UniformInt(0, 25)),
                  rng.Uniform(0, 100));
        } else if (pick < 94) {
          watermark = std::max(watermark, now - rng.UniformInt(0, 12));
          c.Watermark(watermark);
        } else if (pick < 96) {
          c.Checkpoint();
        } else if (pick < 98) {
          c.Rollback();
        } else {
          // Every event so far is at or before `now`, so this closes
          // every open window.
          watermark = now + 10;
          c.Watermark(watermark);
        }
      }
      c.Flush();
    }
  }
}

std::vector<Event> RandomSortedRun(Rng* rng, uint32_t node, size_t n) {
  std::vector<Event> run;
  for (uint32_t i = 0; i < n; ++i) {
    run.push_back(Event{rng->Uniform(0, 1000), static_cast<TimestampUs>(i), node, i});
  }
  std::sort(run.begin(), run.end());
  return run;
}

TEST(LoserTree, MergesLikeGlobalSort) {
  Rng rng(42);
  std::vector<std::vector<Event>> runs;
  std::vector<Event> all;
  for (uint32_t n = 0; n < 5; ++n) {
    auto run = RandomSortedRun(&rng, n, 200 + n * 37);
    all.insert(all.end(), run.begin(), run.end());
    runs.push_back(std::move(run));
  }
  std::sort(all.begin(), all.end());
  auto merged = MergeSortedRuns(std::move(runs));
  EXPECT_EQ(merged, all);
}

TEST(LoserTree, HandlesEmptyAndSingletonRuns) {
  std::vector<std::vector<Event>> runs(4);
  runs[1].push_back(Event{2, 0, 1, 0});
  runs[3].push_back(Event{1, 0, 3, 0});
  auto merged = MergeSortedRuns(std::move(runs));
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].value, 1);
  EXPECT_EQ(merged[1].value, 2);
}

TEST(LoserTree, NoRunsMeansNothing) {
  LoserTreeMerger merger({});
  EXPECT_FALSE(merger.HasNext());
  EXPECT_EQ(merger.remaining(), 0u);
}

TEST(LoserTree, SingleRunPassesThrough) {
  Rng rng(1);
  auto run = RandomSortedRun(&rng, 0, 100);
  auto expected = run;
  std::vector<std::vector<Event>> runs;
  runs.push_back(std::move(run));
  auto merged = MergeSortedRuns(std::move(runs));
  EXPECT_EQ(merged, expected);
}

TEST(LoserTree, ManyRunsNonPowerOfTwo) {
  Rng rng(7);
  std::vector<std::vector<Event>> runs;
  std::vector<Event> all;
  for (uint32_t n = 0; n < 13; ++n) {  // pads to 16 leaves internally
    auto run = RandomSortedRun(&rng, n, (n * 53) % 97);
    all.insert(all.end(), run.begin(), run.end());
    runs.push_back(std::move(run));
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(MergeSortedRuns(std::move(runs)), all);
}

TEST(LoserTree, StreamingInterface) {
  std::vector<std::vector<Event>> runs;
  runs.push_back({Event{1, 0, 0, 0}, Event{3, 0, 0, 1}});
  runs.push_back({Event{2, 0, 1, 0}});
  LoserTreeMerger merger(std::move(runs));
  EXPECT_EQ(merger.remaining(), 3u);
  EXPECT_EQ(merger.Next().value, 1);
  EXPECT_EQ(merger.Next().value, 2);
  EXPECT_TRUE(merger.HasNext());
  EXPECT_EQ(merger.Next().value, 3);
  EXPECT_FALSE(merger.HasNext());
}

// The merger documents that the global event order is strict across honest
// runs, but callers can feed it runs that break the contract (replayed or
// duplicated events). The tiebreak must keep the merge deterministic and
// rank-select must still agree with a plain sort oracle.
TEST(LoserTree, DuplicateEventsAcrossRunsMatchSortOracle) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t num_runs = static_cast<size_t>(rng.UniformInt(2, 12));
    std::vector<std::vector<Event>> runs(num_runs);
    std::vector<Event> all;
    for (size_t n = 0; n < num_runs; ++n) {
      const size_t len = static_cast<size_t>(rng.UniformInt(0, 40));
      for (size_t i = 0; i < len; ++i) {
        // Tiny alphabet everywhere: values, timestamps, node ids and seqs
        // all collide, so runs share exactly-equal event tuples.
        Event e{static_cast<double>(rng.UniformInt(0, 4)),
                static_cast<TimestampUs>(rng.UniformInt(0, 2)),
                static_cast<NodeId>(rng.UniformInt(0, 2)),
                static_cast<uint32_t>(rng.UniformInt(0, 2))};
        runs[n].push_back(e);
        all.push_back(e);
        // Sometimes mirror the identical event into a second run too.
        if (rng.UniformInt(0, 3) == 0) {
          runs[(n + 1) % num_runs].push_back(e);
          all.push_back(e);
        }
      }
    }
    for (auto& run : runs) std::sort(run.begin(), run.end());
    std::sort(all.begin(), all.end());
    auto runs_copy = runs;
    EXPECT_EQ(MergeSortedRuns(std::move(runs_copy)), all) << "trial " << trial;

    if (all.empty()) continue;
    std::vector<uint64_t> ranks = {1, static_cast<uint64_t>(all.size())};
    for (int i = 0; i < 5; ++i) {
      ranks.push_back(static_cast<uint64_t>(
          rng.UniformInt(1, static_cast<int64_t>(all.size()))));
    }
    auto picked = SelectRanksFromRuns(std::move(runs), ranks);
    ASSERT_TRUE(picked.ok()) << picked.status();
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ((*picked)[i], all[ranks[i] - 1])
          << "trial " << trial << " rank " << ranks[i];
    }
  }
}

TEST(LoserTree, SkipMatchesRepeatedNext) {
  Rng rng(5150);
  for (size_t num_runs : {1u, 3u, 9u}) {  // covers flat and tree engines
    std::vector<std::vector<Event>> runs;
    for (uint32_t n = 0; n < num_runs; ++n) {
      runs.push_back(RandomSortedRun(&rng, n, 120));
    }
    auto runs_copy = runs;
    LoserTreeMerger stepper(std::move(runs_copy));
    LoserTreeMerger skipper(std::move(runs));
    uint64_t left = stepper.remaining();
    while (left > 0) {
      const uint64_t gap =
          std::min<uint64_t>(left - 1, static_cast<uint64_t>(rng.UniformInt(0, 17)));
      for (uint64_t i = 0; i < gap; ++i) stepper.Next();
      skipper.Skip(gap);
      ASSERT_EQ(stepper.remaining(), skipper.remaining());
      ASSERT_EQ(stepper.Next(), skipper.Next());
      left -= gap + 1;
    }
    EXPECT_FALSE(skipper.HasNext());
  }
}

/// Oracle for SelectRanksFromRuns: materialize the full merge and index.
std::vector<Event> SelectByFullMerge(std::vector<std::vector<Event>> runs,
                                     const std::vector<uint64_t>& ranks) {
  auto merged = MergeSortedRuns(std::move(runs));
  std::vector<Event> out;
  out.reserve(ranks.size());
  for (uint64_t r : ranks) out.push_back(merged[r - 1]);
  return out;
}

TEST(SelectRanks, MatchesFullMergeOracleOnRandomRuns) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    size_t num_runs = static_cast<size_t>(rng.UniformInt(1, 8));
    std::vector<std::vector<Event>> runs;
    uint64_t total = 0;
    for (size_t n = 0; n < num_runs; ++n) {
      size_t len = static_cast<size_t>(rng.UniformInt(0, 60));
      runs.push_back(RandomSortedRun(&rng, static_cast<uint32_t>(n), len));
      total += len;
    }
    if (total == 0) continue;
    // Unsorted, possibly duplicated rank list, always including both ends.
    std::vector<uint64_t> ranks = {total, 1};
    size_t extra = static_cast<size_t>(rng.UniformInt(0, 6));
    for (size_t i = 0; i < extra; ++i) {
      ranks.push_back(static_cast<uint64_t>(rng.UniformInt(1, static_cast<int64_t>(total))));
    }
    auto oracle = SelectByFullMerge(runs, ranks);
    auto picked = SelectRanksFromRuns(std::move(runs), ranks);
    ASSERT_TRUE(picked.ok()) << picked.status();
    ASSERT_EQ(picked->size(), ranks.size());
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ((*picked)[i], oracle[i])
          << "trial " << trial << " rank " << ranks[i];
    }
  }
}

TEST(SelectRanks, SingleRunIsDirectIndexing) {
  Rng rng(9);
  auto run = RandomSortedRun(&rng, 0, 40);
  std::vector<std::vector<Event>> runs;
  runs.push_back(run);
  std::vector<uint64_t> ranks = {1, 20, 40};
  auto picked = SelectRanksFromRuns(std::move(runs), ranks);
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ((*picked)[0], run[0]);
  EXPECT_EQ((*picked)[1], run[19]);
  EXPECT_EQ((*picked)[2], run[39]);
}

TEST(SelectRanks, EmptyRankListReturnsNothing) {
  std::vector<std::vector<Event>> runs;
  runs.push_back({Event{1, 0, 0, 0}});
  auto picked = SelectRanksFromRuns(std::move(runs), {});
  ASSERT_TRUE(picked.ok());
  EXPECT_TRUE(picked->empty());
}

TEST(SelectRanks, DuplicateRanksReuseOneAdvance) {
  std::vector<std::vector<Event>> runs;
  runs.push_back({Event{1, 0, 0, 0}, Event{3, 0, 0, 1}});
  runs.push_back({Event{2, 0, 1, 0}});
  auto picked = SelectRanksFromRuns(std::move(runs), {2, 2, 2});
  ASSERT_TRUE(picked.ok());
  for (const Event& e : *picked) EXPECT_EQ(e.value, 2);
}

TEST(SelectRanks, RejectsOutOfRangeRanks) {
  std::vector<std::vector<Event>> runs;
  runs.push_back({Event{1, 0, 0, 0}, Event{2, 0, 0, 1}});
  EXPECT_FALSE(SelectRanksFromRuns(runs, {0}).ok());
  EXPECT_FALSE(SelectRanksFromRuns(runs, {3}).ok());
  EXPECT_FALSE(SelectRanksFromRuns({}, {1}).ok());
}

TEST(SelectRanks, EmptyRunsAmongRealOnes) {
  std::vector<std::vector<Event>> runs(5);
  runs[1] = {Event{10, 0, 1, 0}, Event{30, 0, 1, 1}};
  runs[3] = {Event{20, 0, 3, 0}};
  auto picked = SelectRanksFromRuns(std::move(runs), {1, 2, 3});
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ((*picked)[0].value, 10);
  EXPECT_EQ((*picked)[1].value, 20);
  EXPECT_EQ((*picked)[2].value, 30);
}

}  // namespace
}  // namespace dema::stream
