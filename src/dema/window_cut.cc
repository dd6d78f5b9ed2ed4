#include "dema/window_cut.h"

#include <algorithm>
#include <string>

namespace dema::core {

namespace {

using Endpoint = WindowCutScratch::Endpoint;

/// Checks every slice once, then every rank against their total.
Status ValidateInput(const std::vector<SliceSynopsis>& slices, uint64_t global_size,
                     const std::vector<uint64_t>& target_ranks) {
  if (target_ranks.empty()) {
    return Status::InvalidArgument("no target ranks given");
  }
  uint64_t total = 0;
  for (const SliceSynopsis& s : slices) {
    if (s.count == 0) return Status::InvalidArgument("slice with zero events");
    if (s.last < s.first) {
      return Status::InvalidArgument("slice with last < first");
    }
    if (__builtin_add_overflow(total, s.count, &total)) {
      return Status::InvalidArgument("slice counts overflow 64 bits");
    }
  }
  if (total != global_size) {
    return Status::InvalidArgument(
        "slice counts sum to " + std::to_string(total) + ", expected global size " +
        std::to_string(global_size));
  }
  if (global_size == 0) return Status::InvalidArgument("empty global window");
  for (uint64_t rank : target_ranks) {
    if (rank < 1 || rank > global_size) {
      return Status::OutOfRange("target rank " + std::to_string(rank) +
                                " outside [1, " + std::to_string(global_size) + "]");
    }
  }
  return Status::OK();
}

/// Validates the input, sorts the slices' endpoints into \p scratch, and
/// computes every slice's rank bounds into `scratch->bounds` and the slice
/// classes into \p classes, in one sweep over each sorted order.
Status Identify(const std::vector<SliceSynopsis>& slices, uint64_t global_size,
                const std::vector<uint64_t>& target_ranks, WindowCutScratch* scratch,
                SliceClassCounts* classes) {
  DEMA_RETURN_NOT_OK(ValidateInput(slices, global_size, target_ranks));
  const size_t m = slices.size();  // >= 1: the window is not empty
  std::vector<Endpoint>& firsts = scratch->firsts;
  std::vector<Endpoint>& lasts = scratch->lasts;
  firsts.resize(m);
  lasts.resize(m);
  for (size_t i = 0; i < m; ++i) {
    firsts[i] = Endpoint{slices[i].first, i};
    lasts[i] = Endpoint{slices[i].last, i};
  }
  std::sort(firsts.begin(), firsts.end(), [&](const Endpoint& a, const Endpoint& b) {
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    return slices[b.slice].last < slices[a.slice].last;
  });
  std::sort(lasts.begin(), lasts.end(),
            [](const Endpoint& a, const Endpoint& b) { return a.key < b.key; });
  std::vector<RankBounds>& bounds = scratch->bounds;
  bounds.resize(m);

  // In first order. min_rank(S) = 1 + Σ defBelow(T, f_S): every slice whose
  // last is below f_S lies wholly below it, and every other slice whose
  // first is below f_S (f_T < f_S <= l_T) has just that first event surely
  // below. Slices with firsts below f_S number `run_start`, the start of
  // f_S's run of equal firsts; `lasts_below` of them end below f_S.
  //
  // The classes ride along: `hull` is the slice with the largest last seen
  // so far. A slice ending at or before the hull's last is covered; one that
  // starts at or before it overlaps the hull partially, making both
  // compound. A hull is counted once a slice ending later replaces it.
  *classes = SliceClassCounts{};
  size_t run_start = 0;
  size_t lasts_below = 0;
  uint64_t weight_below = 0;
  size_t hull = firsts[0].slice;
  bool hull_compound = false;
  for (size_t p = 0; p < m; ++p) {
    const Event& f = firsts[p].key;
    if (p > 0 && firsts[p - 1].key < f) run_start = p;
    while (lasts_below < m && lasts[lasts_below].key < f) {
      weight_below += slices[lasts[lasts_below].slice].count;
      ++lasts_below;
    }
    const size_t i = firsts[p].slice;
    bounds[i].min_rank = 1 + weight_below + (run_start - lasts_below);

    if (p == 0) continue;
    const Event& hull_last = slices[hull].last;
    if (!(hull_last < slices[i].last)) {
      ++classes->cover;
      continue;
    }
    const bool overlaps = !(hull_last < f);
    if (overlaps || hull_compound) {
      ++classes->compound;
    } else {
      ++classes->separate;
    }
    hull = i;
    hull_compound = overlaps;
  }
  if (hull_compound) {
    ++classes->compound;
  } else {
    ++classes->separate;
  }

  // In last order. max_rank(S) = Σ possLE(T, l_S): every slice whose first
  // is at or below l_S may lie wholly at or below it, except for the last
  // event of each such slice that ends above l_S (f_T <= l_S < l_T). Slices
  // with lasts at or below l_S number `run_end`, the end of l_S's run of
  // equal lasts; `firsts_le` slices start at or below it.
  size_t firsts_le = 0;
  uint64_t weight_le = 0;
  for (size_t q = 0; q < m;) {
    const Event& l = lasts[q].key;
    size_t run_end = q + 1;
    while (run_end < m && !(l < lasts[run_end].key)) ++run_end;
    while (firsts_le < m && !(l < firsts[firsts_le].key)) {
      weight_le += slices[firsts[firsts_le].slice].count;
      ++firsts_le;
    }
    for (; q < run_end; ++q) {
      bounds[lasts[q].slice].max_rank = weight_le - (firsts_le - run_end);
    }
  }
  return Status::OK();
}

}  // namespace

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
  DEMA_RETURN_NOT_OK(
      Identify(slices, global_size, target_ranks, scratch, &result->classes));
  const std::vector<RankBounds>& bounds = scratch->bounds;

  result->candidates.clear();
  result->selections.clear();
  result->candidate_event_count = 0;
  std::vector<bool>& is_candidate = scratch->is_candidate;
  is_candidate.assign(slices.size(), false);
  for (size_t i = 0; i < slices.size(); ++i) {
    for (uint64_t rank : target_ranks) {
      if (bounds[i].min_rank <= rank && rank <= bounds[i].max_rank) {
        is_candidate[i] = true;
        result->candidates.push_back(i);
        result->candidate_event_count += slices[i].count;
        break;
      }
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

Result<WindowCutResult> WindowCut::SelectNaiveOverlap(
    const std::vector<SliceSynopsis>& slices, uint64_t global_size,
    uint64_t target_rank) {
  WindowCutScratch scratch;
  WindowCutResult result;
  DEMA_RETURN_NOT_OK(
      Identify(slices, global_size, {target_rank}, &scratch, &result.classes));

  // Slices in first order fall into value-disjoint components, split where a
  // slice starts above every earlier slice's last. The pivot is the slice the
  // target rank lands in when counts are accumulated in that order (what a
  // synopsis-less implementation would guess); the candidates are its
  // component, the transitive value-overlap closure around it. Validation
  // makes the counts sum to global_size >= target_rank, so the walk lands.
  const std::vector<Endpoint>& order = scratch.firsts;
  const size_t m = order.size();
  size_t lo = 0;  // the pivot's component is order[lo, hi)
  size_t hi = 0;
  Event reach = order[0].key;
  uint64_t cum = 0;
  uint64_t below = 0;
  for (; hi < m; ++hi) {
    if (reach < order[hi].key) {
      if (cum >= target_rank) break;
      lo = hi;
      below = cum;
    }
    reach = std::max(reach, slices[order[hi].slice].last);
    cum += slices[order[hi].slice].count;
  }

  // The component is value-disjoint from everything outside it: the slices
  // before it lie entirely below, those after it entirely above, so
  // exactness holds with the same below-count selection rule.
  std::vector<bool>& is_candidate = scratch.is_candidate;
  is_candidate.assign(m, false);
  for (size_t pos = lo; pos < hi; ++pos) is_candidate[order[pos].slice] = true;
  for (size_t i = 0; i < m; ++i) {
    if (is_candidate[i]) {
      result.candidates.push_back(i);
      result.candidate_event_count += slices[i].count;
    }
  }
  result.selections.push_back(RankSelection{target_rank, below});
  return result;
}

}  // namespace dema::core
