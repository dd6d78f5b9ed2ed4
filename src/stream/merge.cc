#include "stream/merge.h"

#include <algorithm>
#include <limits>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dema::stream {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Leaf count at or below which the flat argmin engine replaces the tree.
constexpr size_t kFlatMaxK = 8;

/// Orders after every real event: exhausted and virtual runs hold this, so
/// the advance loop needs no per-comparison exhaustion checks. Never
/// produced (`remaining_` gates `Next`).
Event Sentinel() {
  return Event{std::numeric_limits<double>::infinity(),
               std::numeric_limits<TimestampUs>::max(),
               std::numeric_limits<NodeId>::max(),
               std::numeric_limits<uint32_t>::max()};
}

/// Bitmask of the lanes of v[0..7] holding the minimum value.
uint32_t MinValueMask8Scalar(const double* v) {
  double mn = v[0];
  for (size_t i = 1; i < kFlatMaxK; ++i) mn = std::min(mn, v[i]);
  uint32_t mask = 0;
  for (size_t i = 0; i < kFlatMaxK; ++i) {
    if (v[i] == mn) mask |= 1u << i;
  }
  return mask;
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) uint32_t MinValueMask8Avx2(const double* v) {
  __m256d a = _mm256_loadu_pd(v);
  __m256d b = _mm256_loadu_pd(v + 4);
  __m256d m = _mm256_min_pd(a, b);
  __m128d lo = _mm256_castpd256_pd128(m);
  __m128d hi = _mm256_extractf128_pd(m, 1);
  __m128d m2 = _mm_min_pd(lo, hi);
  __m128d m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
  __m256d vm = _mm256_broadcastsd_pd(m1);
  uint32_t mask_a = static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_cmp_pd(a, vm, _CMP_EQ_OQ)));
  uint32_t mask_b = static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_cmp_pd(b, vm, _CMP_EQ_OQ)));
  return mask_a | (mask_b << 4);
}

using MinMaskFn = uint32_t (*)(const double*);

/// Runtime dispatch, resolved once: AVX2 hardware argmin when the CPU has
/// it, portable scalar otherwise. Both return identical masks.
MinMaskFn ResolveMinMask() {
  return __builtin_cpu_supports("avx2") ? &MinValueMask8Avx2
                                        : &MinValueMask8Scalar;
}

uint32_t MinValueMask8(const double* v) {
  static const MinMaskFn fn = ResolveMinMask();
  return fn(v);
}
#else
uint32_t MinValueMask8(const double* v) { return MinValueMask8Scalar(v); }
#endif

}  // namespace

void LoserTreeMerger::Reset(std::vector<std::vector<Event>> runs) {
  runs_ = std::move(runs);
  pos_.assign(runs_.size(), 0);
  remaining_ = 0;
  for (const auto& run : runs_) remaining_ += run.size();
  k_ = NextPow2(std::max<size_t>(1, runs_.size()));
  flat_ = k_ <= kFlatMaxK;
  // The flat engine always scans kFlatMaxK lanes so the SIMD path needs no
  // per-k masking; unused lanes hold the sentinel and never win.
  const size_t leaves = flat_ ? kFlatMaxK : k_;
  heads_.assign(leaves, Sentinel());
  head_vals_.assign(leaves, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (!runs_[i].empty()) {
      heads_[i] = runs_[i][0];
      head_vals_[i] = heads_[i].value;
    }
  }
  if (flat_ || remaining_ == 0) return;

  // Bottom-up tournament: winners propagate, internal nodes keep losers.
  // Virtual leaves beyond runs_.size() hold sentinels (exhausted runs).
  tree_.assign(k_, 0);
  struct Init {
    LoserTreeMerger* m;
    size_t Winner(size_t node) {
      if (node >= m->k_) return node - m->k_;
      size_t left = Winner(2 * node);
      size_t right = Winner(2 * node + 1);
      if (m->Loses(right, left)) {
        m->tree_[node] = right;
        return left;
      }
      m->tree_[node] = left;
      return right;
    }
  };
  tree_[0] = Init{this}.Winner(1);
}

bool LoserTreeMerger::Loses(size_t a, size_t b) const {
  // Heads are materialized (sentinel when exhausted), so this is a plain
  // comparison — no bounds checks in the replay loop. The global event
  // order is strict for honest inputs; if two runs nevertheless present
  // equal heads (duplicated events, or two sentinels), the lower leaf index
  // wins so the merge stays deterministic.
  const Event& ea = heads_[a];
  const Event& eb = heads_[b];
  if (eb < ea) return true;
  if (ea < eb) return false;
  return a > b;
}

size_t LoserTreeMerger::Winner() const {
  if (!flat_) return tree_[0];
  uint32_t mask = MinValueMask8(head_vals_.data());
  size_t w = static_cast<size_t>(__builtin_ctz(mask));
  mask &= mask - 1;
  // Value ties across lanes: resolve by the full event tuple, lowest leaf
  // index last (strict `<` keeps the earlier lane on exact duplicates).
  while (mask != 0) {
    size_t i = static_cast<size_t>(__builtin_ctz(mask));
    if (heads_[i] < heads_[w]) w = i;
    mask &= mask - 1;
  }
  return w;
}

void LoserTreeMerger::Advance(size_t w, size_t n) {
  pos_[w] += n;
  if (pos_[w] < runs_[w].size()) {
    heads_[w] = runs_[w][pos_[w]];
    head_vals_[w] = heads_[w].value;
  } else {
    heads_[w] = Sentinel();
    head_vals_[w] = std::numeric_limits<double>::infinity();
  }
  if (!flat_) Replay(w);
}

Event LoserTreeMerger::Next() {
  size_t w = Winner();
  Event out = heads_[w];
  --remaining_;
  Advance(w, 1);
  return out;
}

Event LoserTreeMerger::LimitExcluding(size_t w) const {
  Event best = Sentinel();
  if (flat_) {
    for (size_t i = 0; i < heads_.size(); ++i) {
      if (i != w && heads_[i] < best) best = heads_[i];
    }
    return best;
  }
  // In a loser tree the candidates to succeed leaf w are exactly the losers
  // stored on w's root path; their minimum bounds how far w may gallop.
  for (size_t node = (k_ + w) / 2; node >= 1; node /= 2) {
    const Event& l = heads_[tree_[node]];
    if (l < best) best = l;
  }
  return best;
}

void LoserTreeMerger::Skip(uint64_t n) {
  while (n > 0) {
    size_t w = Winner();
    const std::vector<Event>& run = runs_[w];
    // Gallop: every event of run w strictly below the best other head is
    // next in the merged order — binary search the boundary instead of
    // replaying the tournament per event.
    const Event limit = LimitExcluding(w);
    size_t hi = static_cast<size_t>(
        std::lower_bound(run.begin() + pos_[w], run.end(), limit) -
        run.begin());
    uint64_t m = std::min<uint64_t>(n, hi - pos_[w]);
    // A tie at the boundary (head == limit) gallops zero but still wins the
    // tournament by leaf index: emit one event to guarantee progress.
    if (m == 0) m = 1;
    remaining_ -= m;
    n -= m;
    Advance(w, static_cast<size_t>(m));
  }
}

void LoserTreeMerger::Replay(size_t runner) {
  size_t cur = runner;
  for (size_t node = (k_ + runner) / 2; node >= 1; node /= 2) {
    if (Loses(cur, tree_[node])) std::swap(cur, tree_[node]);
  }
  tree_[0] = cur;
}

std::vector<Event> MergeSortedRuns(std::vector<std::vector<Event>> runs) {
  LoserTreeMerger merger(std::move(runs));
  std::vector<Event> out;
  out.reserve(merger.remaining());
  while (merger.HasNext()) out.push_back(merger.Next());
  return out;
}

Result<std::vector<Event>> SelectRanksFromRuns(
    std::vector<std::vector<Event>> runs, const std::vector<uint64_t>& ranks) {
  std::vector<Event> out;
  RankSelectScratch scratch;
  DEMA_RETURN_NOT_OK(SelectRanksFromRunsInto(&runs, ranks, &out, &scratch));
  return out;
}

Status SelectRanksFromRunsInto(std::vector<std::vector<Event>>* runs,
                               const std::vector<uint64_t>& ranks,
                               std::vector<Event>* out,
                               RankSelectScratch* scratch) {
  uint64_t total = 0;
  for (const auto& run : *runs) total += run.size();
  for (uint64_t rank : ranks) {
    if (rank < 1 || rank > total) {
      return Status::InvalidArgument("rank " + std::to_string(rank) +
                                     " outside merged runs [1, " +
                                     std::to_string(total) + "]");
    }
  }
  out->resize(ranks.size());
  if (ranks.empty()) return Status::OK();
  if (runs->size() == 1) {
    // One sorted run is its own merged order.
    const std::vector<Event>& run = runs->front();
    for (size_t i = 0; i < ranks.size(); ++i) (*out)[i] = run[ranks[i] - 1];
    return Status::OK();
  }

  // Visit the requested ranks in ascending order so one forward pass of the
  // tournament serves all of them, galloping over the gaps; the merger never
  // advances past the highest requested rank.
  std::vector<size_t>& order = scratch->order;
  order.resize(ranks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return ranks[a] < ranks[b]; });

  LoserTreeMerger& merger = scratch->merger;
  merger.Reset(std::move(*runs));
  uint64_t produced = 0;
  Event current{};
  for (size_t idx : order) {
    if (ranks[idx] > produced) {
      merger.Skip(ranks[idx] - produced - 1);
      current = merger.Next();
      produced = ranks[idx];
    }
    (*out)[idx] = current;  // duplicate ranks reuse the event already produced
  }
  *runs = merger.TakeRuns();
  return Status::OK();
}

}  // namespace dema::stream
