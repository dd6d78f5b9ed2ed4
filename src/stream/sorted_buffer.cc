#include "stream/sorted_buffer.h"

#include <algorithm>
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
/// they have grown to the window size. Every executor worker has its own.
struct SortScratch {
  std::vector<KeyedIndex> keys;
  std::vector<KeyedIndex> keys_out;
  std::vector<Event> events;
  std::vector<uint32_t> counts;  // kDigits histograms of kBuckets each
};

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

}  // namespace

void SortEvents(std::vector<Event>* events) {
  const size_t n = events->size();
  // The radix path counts and indexes events in 32 bits.
  if (n < kRadixSortMinEvents || n > std::numeric_limits<uint32_t>::max()) {
    std::sort(events->begin(), events->end());
    return;
  }
  thread_local SortScratch scratch;
  scratch.keys.resize(n);
  scratch.keys_out.resize(n);
  scratch.counts.assign(kDigits * kBuckets, 0);

  // One pass computes every key and every digit's histogram.
  const Event* in = events->data();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = OrderKey(in[i].value);
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
  // equal values — by the full (value, timestamp, node, seq) comparator.
  std::vector<Event>& out = scratch.events;
  out.resize(n);
  for (size_t i = 0; i < n; ++i) out[i] = in[src[i].index];
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && src[end].key == src[begin].key) ++end;
    if (end - begin > 1) std::sort(out.begin() + begin, out.begin() + end);
    begin = end;
  }
  // The unsorted buffer becomes the next call's gather target.
  events->swap(out);
}

uint64_t SortedWindowBuffer::size() const {
  return mode_ == SortMode::kSortOnClose ? vec_.size() : ordered_.size();
}

std::vector<Event> SortedWindowBuffer::TakeRaw(bool* is_sorted) {
  std::vector<Event> out;
  if (mode_ == SortMode::kSortOnClose) {
    out = std::move(vec_);
    vec_.clear();
    *is_sorted = out.empty();  // insertion order, unsorted unless trivial
  } else {
    out.assign(ordered_.begin(), ordered_.end());
    ordered_.clear();
    *is_sorted = true;
  }
  return out;
}

std::vector<Event> SortedWindowBuffer::TakeSorted() {
  std::vector<Event> out;
  if (mode_ == SortMode::kSortOnClose) {
    out = std::move(vec_);
    vec_.clear();
    SortEvents(&out);
  } else {
    out.assign(ordered_.begin(), ordered_.end());
    ordered_.clear();
  }
  return out;
}

}  // namespace dema::stream
