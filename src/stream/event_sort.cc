#include "stream/event_sort.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace dema::stream {

namespace {

/// Radix digit width: 2048 buckets per pass, six digits cover 64 bits.
constexpr int kDigitBits = 11;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kBuckets - 1;
constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;

/// A value's order key and the event's position in the unsorted window.
struct KeyedIndex {
  uint64_t key;
  uint32_t index;
};

/// Per-thread buffers, kept across calls so a close allocates nothing once
/// they have grown to the window size.
struct SortScratch {
  std::vector<KeyedIndex> keys;
  std::vector<KeyedIndex> keys_out;
  std::vector<Event> events;
  std::vector<uint32_t> counts;  // kDigits histograms of kBuckets each
  std::vector<uint32_t> bucket_ends;  // OrderSlices: end of each bucket
};

thread_local SortScratch t_scratch;

/// Maps a finite double onto an unsigned integer with the same order. -0.0
/// maps to +0.0's key, because `operator<` treats the two as equal.
uint64_t OrderKey(double value) {
  if (value == 0) value = 0;
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  constexpr uint64_t kSign = uint64_t{1} << 63;
  // Negative values: flip every bit, so larger magnitudes order first.
  // Non-negative values: set the sign bit, so they order after negatives.
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// True when \p n events go through the radix sort rather than `std::sort`;
/// it counts and indexes events in 32 bits.
bool UseRadix(size_t n) {
  return n >= kRadixSortMinEvents && n <= std::numeric_limits<uint32_t>::max();
}

}  // namespace

void SortEvents(std::span<Event> events) {
  const size_t n = events.size();
  if (!UseRadix(n)) {
    std::sort(events.begin(), events.end());
    return;
  }
  SortScratch& scratch = t_scratch;
  scratch.keys.resize(n);
  scratch.keys_out.resize(n);
  scratch.counts.assign(kDigits * kBuckets, 0);

  // One pass computes every key and every digit's histogram.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = OrderKey(events[i].value);
    scratch.keys[i] = KeyedIndex{key, static_cast<uint32_t>(i)};
    for (int d = 0; d < kDigits; ++d) {
      ++scratch.counts[d * kBuckets + ((key >> (d * kDigitBits)) & kDigitMask)];
    }
  }

  // LSD passes, each a stable scatter by one digit. A digit every key
  // shares leaves the order as it is, so its pass is skipped.
  KeyedIndex* src = scratch.keys.data();
  KeyedIndex* dst = scratch.keys_out.data();
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    uint32_t* count = scratch.counts.data() + d * kBuckets;
    if (count[(src[0].key >> shift) & kDigitMask] == n) continue;
    uint32_t offset = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const KeyedIndex k = src[i];
      dst[count[(k.key >> shift) & kDigitMask]++] = k;
    }
    std::swap(src, dst);
  }

  // Gather the events in key order, then order each run of equal keys —
  // equal values — by the full (value, timestamp, node, seq) comparator,
  // and copy the result back.
  std::vector<Event>& out = scratch.events;
  out.resize(n);
  for (size_t i = 0; i < n; ++i) out[i] = events[src[i].index];
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && src[end].key == src[begin].key) ++end;
    if (end - begin > 1) std::sort(out.begin() + begin, out.begin() + end);
    begin = end;
  }
  std::copy_n(out.begin(), n, events.begin());
}

/// Moves per event that `SortServedSlice`'s insertion pass may make before
/// it hands the range to `SortEvents`. A bucket-ordered slice of the sensor
/// walk needs about 2.
constexpr size_t kServedSliceMovesPerEvent = 8;

bool SortServedSlice(std::span<Event> events) {
  // `operator<` with the value compare up front, where almost every
  // comparison ends (values are finite, so equal is the only other case).
  auto less = [](const Event& a, const Event& b) {
    return a.value < b.value || (a.value == b.value && a < b);
  };
  const size_t n = events.size();
  size_t budget = kServedSliceMovesPerEvent * n;
  for (size_t i = 1; i < n; ++i) {
    if (!less(events[i], events[i - 1])) continue;
    const Event e = events[i];
    size_t j = i;
    do {
      events[j] = events[j - 1];
      --j;
    } while (j > 0 && less(e, events[j - 1]));
    events[j] = e;
    // [0, i] is sorted either way; the fallback finishes the range.
    if (i - j > budget) {
      SortEvents(events);
      return false;
    }
    budget -= i - j;
  }
  return true;
}

void OrderSlices(std::vector<Event>* events, uint64_t gamma) {
  const size_t n = events->size();
  if (!UseRadix(n)) {
    SortEvents(*events);
    return;
  }
  const Event* in = events->data();
  double lo = in[0].value;
  double hi = in[0].value;
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, in[i].value);
    hi = std::max(hi, in[i].value);
  }
  // About n/4 buckets (a power of two) of equal width between the smallest
  // and largest value. A bucket is a range of values, so scattering the
  // events by bucket puts each between its bucket's exact first and last
  // rank. All-equal values (no width), and a range too wide or too narrow
  // for a finite scale, leave nothing to split: sort the whole window.
  const size_t buckets = std::bit_floor(n / 4);
  const double scale = static_cast<double>(buckets) / (hi - lo);
  if (!(scale > 0 && scale < std::numeric_limits<double>::infinity())) {
    SortEvents(*events);
    return;
  }
  // Monotone in the value; the rounding of (hi − lo)·scale may reach
  // `buckets`, so the top is clamped.
  auto bucket_of = [&](double value) {
    return std::min(buckets - 1, static_cast<size_t>((value - lo) * scale));
  };
  SortScratch& scratch = t_scratch;
  std::vector<uint32_t>& ends = scratch.bucket_ends;
  ends.assign(buckets, 0);
  for (size_t i = 0; i < n; ++i) ++ends[bucket_of(in[i].value)];
  uint32_t offset = 0;
  for (uint32_t& end : ends) {
    const uint32_t c = end;
    end = offset;
    offset += c;
  }
  std::vector<Event>& out = scratch.events;
  out.resize(n);
  for (size_t i = 0; i < n; ++i) out[ends[bucket_of(in[i].value)]++] = in[i];
  events->swap(out);

  // Only the buckets holding a slice's first or last rank are sorted, each
  // once; the rest keep their events in arrival order. Ranks ascend, so the
  // bucket cursor only moves forward.
  gamma = std::max<uint64_t>(gamma, 1);
  Event* data = events->data();
  size_t bucket = 0;
  size_t sorted = ends.size();  // the last bucket sorted, none yet
  auto place_rank = [&](uint64_t rank) {
    while (ends[bucket] <= rank) ++bucket;
    if (bucket == sorted) return;
    sorted = bucket;
    const uint32_t begin = bucket == 0 ? 0 : ends[bucket - 1];
    SortEvents({data + begin, data + ends[bucket]});
  };
  for (uint64_t first = 0; first < n; first += gamma) {
    place_rank(first);
    place_rank(first + std::min<uint64_t>(gamma, n - first) - 1);
  }
}

}  // namespace dema::stream
