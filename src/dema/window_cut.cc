#include "dema/window_cut.h"

#include <algorithm>
#include <numeric>

namespace dema::core {

namespace {

/// Sorted key array with prefix weights, supporting the four queries the
/// rank bounds need: #keys < v, #keys <= v, weight of keys < v, weight of
/// keys <= v. Keys are full events (total order), so cross-slice ties cannot
/// occur. Built into caller-owned buffers.
class KeyIndex {
 public:
  using Entry = WindowCutScratch::KeyWeight;

  KeyIndex(const std::vector<SliceSynopsis>& slices, bool use_first,
           std::vector<Entry>* entries, std::vector<uint64_t>* prefix)
      : entries_(*entries), prefix_weight_(*prefix) {
    entries_.clear();
    for (const SliceSynopsis& s : slices) {
      entries_.push_back(Entry{use_first ? s.first : s.last, s.count});
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    prefix_weight_.assign(entries_.size() + 1, 0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      prefix_weight_[i + 1] = prefix_weight_[i] + entries_[i].weight;
    }
  }

  /// Number of keys strictly below v.
  uint64_t CountLt(const Event& v) const { return IndexLt(v); }
  /// Number of keys at or below v.
  uint64_t CountLe(const Event& v) const { return IndexLe(v); }
  /// Total weight of keys strictly below v.
  uint64_t WeightLt(const Event& v) const { return prefix_weight_[IndexLt(v)]; }
  /// Total weight of keys at or below v.
  uint64_t WeightLe(const Event& v) const { return prefix_weight_[IndexLe(v)]; }

 private:
  size_t IndexLt(const Event& v) const {
    return static_cast<size_t>(std::lower_bound(entries_.begin(), entries_.end(), v,
                                                [](const Entry& e, const Event& x) {
                                                  return e.key < x;
                                                }) -
                               entries_.begin());
  }
  size_t IndexLe(const Event& v) const {
    return static_cast<size_t>(std::upper_bound(entries_.begin(), entries_.end(), v,
                                                [](const Event& x, const Entry& e) {
                                                  return x < e.key;
                                                }) -
                               entries_.begin());
  }
  std::vector<Entry>& entries_;
  std::vector<uint64_t>& prefix_weight_;
};

/// Rank bounds of every slice into \p scratch->bounds.
void ComputeRankBoundsInto(const std::vector<SliceSynopsis>& slices,
                           WindowCutScratch* scratch) {
  std::vector<RankBounds>& bounds = scratch->bounds;
  bounds.assign(slices.size(), RankBounds{});
  if (slices.empty()) return;
  KeyIndex firsts(slices, /*use_first=*/true, &scratch->firsts,
                  &scratch->first_prefix);
  KeyIndex lasts(slices, /*use_first=*/false, &scratch->lasts,
                 &scratch->last_prefix);

  for (size_t i = 0; i < slices.size(); ++i) {
    const SliceSynopsis& s = slices[i];
    // Events definitely below s.first: whole slices whose last < s.first,
    // plus one event (the first) for slices straddling s.first. A slice T
    // with f_T < s.first <= l_T contributes exactly its first event as
    // provably below; nothing else about T is certain.
    uint64_t whole_below = lasts.WeightLt(s.first);
    uint64_t straddle_firsts = firsts.CountLt(s.first) - lasts.CountLt(s.first);
    bounds[i].min_rank = 1 + whole_below + straddle_firsts;

    // Events possibly at or below s.last: whole slices whose first <= s.last,
    // minus one event (the last) for slices whose last lies above s.last —
    // that last event is provably above.
    uint64_t possible = firsts.WeightLe(s.last);
    uint64_t straddle_lasts = firsts.CountLe(s.last) - lasts.CountLe(s.last);
    bounds[i].max_rank = possible - straddle_lasts;
  }
}

/// Slice classification with its temporaries in \p scratch.
SliceClassCounts ClassifyInto(const std::vector<SliceSynopsis>& slices,
                              WindowCutScratch* scratch) {
  SliceClassCounts counts;
  size_t m = slices.size();
  if (m == 0) return counts;
  std::vector<size_t>& order = scratch->order;
  order.resize(m);
  std::iota(order.begin(), order.end(), 0);
  // Sort by first ascending; ties by last descending so a covering slice
  // precedes the slices it covers.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (slices[a].first < slices[b].first) return true;
    if (slices[b].first < slices[a].first) return false;
    return slices[b].last < slices[a].last;
  });

  // Sweep: max `last` over already-seen slices covers the cover test; any
  // interval intersection that is not containment marks both ends compound.
  std::vector<bool>& covered = scratch->covered;
  std::vector<bool>& overlapped = scratch->overlapped;
  covered.assign(m, false);
  overlapped.assign(m, false);
  Event max_last = slices[order[0]].last;
  size_t max_last_idx = order[0];
  for (size_t pos = 1; pos < m; ++pos) {
    size_t i = order[pos];
    const SliceSynopsis& s = slices[i];
    if (!(max_last < s.last)) {
      covered[i] = true;  // some earlier slice spans [<= first, >= last]
    } else if (!(max_last < s.first)) {
      overlapped[i] = true;  // partial overlap with the running hull
      overlapped[max_last_idx] = true;
    }
    if (max_last < s.last) {
      max_last = s.last;
      max_last_idx = i;
    }
  }
  for (size_t i = 0; i < m; ++i) {
    if (covered[i]) {
      ++counts.cover;
    } else if (overlapped[i]) {
      ++counts.compound;
    } else {
      ++counts.separate;
    }
  }
  return counts;
}

Status ValidateInput(const std::vector<SliceSynopsis>& slices, uint64_t global_size,
                     uint64_t target_rank) {
  uint64_t total = 0;
  for (const SliceSynopsis& s : slices) {
    if (s.count == 0) return Status::InvalidArgument("slice with zero events");
    if (s.last < s.first) {
      return Status::InvalidArgument("slice with last < first");
    }
    total += s.count;
  }
  if (total != global_size) {
    return Status::InvalidArgument(
        "slice counts sum to " + std::to_string(total) + ", expected global size " +
        std::to_string(global_size));
  }
  if (global_size == 0) return Status::InvalidArgument("empty global window");
  if (target_rank < 1 || target_rank > global_size) {
    return Status::OutOfRange("target rank " + std::to_string(target_rank) +
                              " outside [1, " + std::to_string(global_size) + "]");
  }
  return Status::OK();
}

}  // namespace

std::vector<RankBounds> WindowCut::ComputeRankBounds(
    const std::vector<SliceSynopsis>& slices) {
  WindowCutScratch scratch;
  ComputeRankBoundsInto(slices, &scratch);
  return std::move(scratch.bounds);
}

Result<WindowCutResult> WindowCut::Select(const std::vector<SliceSynopsis>& slices,
                                          uint64_t global_size,
                                          uint64_t target_rank) {
  return SelectMulti(slices, global_size, {target_rank});
}

Result<WindowCutResult> WindowCut::SelectMulti(
    const std::vector<SliceSynopsis>& slices, uint64_t global_size,
    const std::vector<uint64_t>& target_ranks) {
  WindowCutScratch scratch;
  WindowCutResult result;
  DEMA_RETURN_NOT_OK(
      SelectMultiInto(slices, global_size, target_ranks, &scratch, &result));
  return result;
}

Status WindowCut::SelectMultiInto(const std::vector<SliceSynopsis>& slices,
                                  uint64_t global_size,
                                  const std::vector<uint64_t>& target_ranks,
                                  WindowCutScratch* scratch,
                                  WindowCutResult* result) {
  if (target_ranks.empty()) {
    return Status::InvalidArgument("no target ranks given");
  }
  for (uint64_t rank : target_ranks) {
    DEMA_RETURN_NOT_OK(ValidateInput(slices, global_size, rank));
  }

  ComputeRankBoundsInto(slices, scratch);
  const std::vector<RankBounds>& bounds = scratch->bounds;

  result->candidates.clear();
  result->selections.clear();
  result->candidate_event_count = 0;
  result->classes = ClassifyInto(slices, scratch);
  std::vector<bool>& is_candidate = scratch->is_candidate;
  is_candidate.assign(slices.size(), false);
  for (size_t i = 0; i < slices.size(); ++i) {
    for (uint64_t rank : target_ranks) {
      if (bounds[i].min_rank <= rank && rank <= bounds[i].max_rank) {
        is_candidate[i] = true;
        break;
      }
    }
  }
  for (size_t i = 0; i < slices.size(); ++i) {
    if (is_candidate[i]) {
      result->candidates.push_back(i);
      result->candidate_event_count += slices[i].count;
    }
  }
  // Per-rank below counts over excluded slices only: candidates' events are
  // all transferred, so the selection rank must not skip them.
  for (uint64_t rank : target_ranks) {
    RankSelection sel;
    sel.rank = rank;
    for (size_t i = 0; i < slices.size(); ++i) {
      if (!is_candidate[i] && bounds[i].max_rank < rank) {
        sel.below_count += slices[i].count;
      }
    }
    result->selections.push_back(sel);
  }
  return Status::OK();
}

Result<WindowCutResult> WindowCut::SelectTwoSidedScan(
    const std::vector<SliceSynopsis>& slices, uint64_t global_size,
    uint64_t target_rank) {
  DEMA_RETURN_NOT_OK(ValidateInput(slices, global_size, target_rank));
  std::vector<RankBounds> bounds = ComputeRankBounds(slices);

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
  // paper keeps both directions, and so do we.)
  for (size_t i : by_end) {
    if (bounds[i].max_rank < target_rank) break;
    if (bounds[i].min_rank <= target_rank) is_candidate[i] = true;
  }

  WindowCutResult result;
  result.classes = ClassifySlices(slices);
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

Result<WindowCutResult> WindowCut::SelectNaiveOverlap(
    const std::vector<SliceSynopsis>& slices, uint64_t global_size,
    uint64_t target_rank) {
  DEMA_RETURN_NOT_OK(ValidateInput(slices, global_size, target_rank));

  // Order slices by first event; the pivot is the slice the target rank lands
  // in when counts are accumulated in that order (what a synopsis-less
  // implementation would guess).
  std::vector<size_t> order(slices.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slices[a].first < slices[b].first;
  });
  uint64_t cum = 0;
  size_t pivot_pos = order.size();  // sentinel: no slice reached the rank
  for (size_t pos = 0; pos < order.size(); ++pos) {
    cum += slices[order[pos]].count;
    if (cum >= target_rank) {
      pivot_pos = pos;
      break;
    }
  }
  if (pivot_pos == order.size()) {
    // ValidateInput guarantees slice counts sum to global_size >= rank, so
    // the cumulative walk must land; anything else is corrupted synopses.
    return Status::Internal(
        "naive selection never reached target rank " +
        std::to_string(target_rank) + " (cumulative count " +
        std::to_string(cum) + ")");
  }

  // Transitive value-overlap closure around the pivot: grow left/right while
  // intervals intersect the current candidate hull. Slices sorted by `first`
  // are not sorted by `last`, so the left scan must consult the prefix
  // maximum of `last` — a wide covering slice far to the left can still
  // straddle the hull.
  std::vector<Event> prefix_max_last(order.size());
  prefix_max_last[0] = slices[order[0]].last;
  for (size_t pos = 1; pos < order.size(); ++pos) {
    prefix_max_last[pos] =
        std::max(prefix_max_last[pos - 1], slices[order[pos]].last);
  }
  Event hull_lo = slices[order[pivot_pos]].first;
  Event hull_hi = slices[order[pivot_pos]].last;
  size_t lo = pivot_pos, hi = pivot_pos;
  bool grew = true;
  while (grew) {
    grew = false;
    while (lo > 0 && !(prefix_max_last[lo - 1] < hull_lo)) {
      --lo;
      hull_lo = slices[order[lo]].first;  // sorted by first, so this extends left
      hull_hi = std::max(hull_hi, slices[order[lo]].last);
      grew = true;
    }
    while (hi + 1 < order.size() && !(hull_hi < slices[order[hi + 1]].first)) {
      ++hi;
      hull_hi = std::max(hull_hi, slices[order[hi]].last);
      grew = true;
    }
  }

  WindowCutResult result;
  result.classes = ClassifySlices(slices);
  std::vector<bool> is_candidate(slices.size(), false);
  for (size_t pos = lo; pos <= hi; ++pos) is_candidate[order[pos]] = true;

  // The closure is value-disjoint from everything outside it, so excluded
  // slices sit entirely below hull_lo or entirely above hull_hi; exactness
  // holds with the same below-count selection rule.
  RankSelection sel;
  sel.rank = target_rank;
  for (size_t i = 0; i < slices.size(); ++i) {
    if (is_candidate[i]) {
      result.candidates.push_back(i);
      result.candidate_event_count += slices[i].count;
    } else if (slices[i].last < hull_lo) {
      sel.below_count += slices[i].count;
    }
  }
  result.selections.push_back(sel);
  return result;
}

SliceClassCounts WindowCut::ClassifySlices(const std::vector<SliceSynopsis>& slices) {
  WindowCutScratch scratch;
  return ClassifyInto(slices, &scratch);
}

}  // namespace dema::core
