#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/event.h"

namespace dema::stream {

/// \brief How a local window keeps its events ordered.
enum class SortMode {
  /// Buffer unsorted, order once when the window closes: `SortEvents`, or
  /// a Dema local's `OrderSlices`. Fastest in practice and the default.
  kSortOnClose,
  /// Keep events ordered at all times (the paper's "incrementally sorts
  /// arriving events"). Useful when slices must be emitted before the window
  /// closes; costs O(log n) per insert with worse constants.
  kIncremental,
};

/// Windows below this many events are sorted with `std::sort`: the radix
/// sort's fixed cost (clearing and prefix-summing its histograms) dominates
/// tiny windows.
inline constexpr size_t kRadixSortMinEvents = 256;

/// \brief Sorts \p events in place into the global event order
/// `(value, timestamp, node, seq)`; the result equals `std::sort` on the same
/// range element for element. The range may be a whole window or one slice
/// of a slice-ordered window (`OrderSlices`).
///
/// Precondition: every value is finite (locals drop NaN and ±Inf at ingest).
/// Ranges of `kRadixSortMinEvents` or more go through an LSD radix sort on
/// an order-preserving 64-bit key of the value, with runs of equal keys
/// re-sorted by the full comparator, and are copied back; smaller ones use
/// `std::sort`. Buffers are reused per thread, so the call allocates nothing
/// once they have grown.
void SortEvents(std::span<Event> events);

/// \brief Sorts one served slice of a slice-ordered window (`OrderSlices`)
/// in place; the result equals `SortEvents`'s.
///
/// Such a slice is already in value-bucket order, so an insertion sort moves
/// each event only past the few events of its own bucket, and an already
/// sorted slice (a re-serve) costs one compare per event. Past 8 moves per
/// event — a slice far from sorted, such as a reversed one — the rest goes
/// to `SortEvents`. Returns true iff the insertion pass finished within
/// that budget.
bool SortServedSlice(std::span<Event> events);

/// \brief Slice-orders \p events for slices of \p gamma events: the cheap
/// part of `SortEvents` that a window's slice synopses need.
///
/// Afterwards, with `s = std::sort` of the input and slice i the positions
/// `[i·γ, min(n, (i+1)·γ))`:
/// - slice i holds exactly the events `s` puts there, in unspecified order;
/// - each slice's first and last position hold exactly `s`'s events there.
///
/// So `SortEvents` on one slice's positions makes them equal `s`'s.
/// Same precondition as `SortEvents`. Windows under `kRadixSortMinEvents`
/// are fully sorted. Larger ones are scattered into about n/4 equal-width
/// value buckets between the window's minimum and maximum, and only the
/// buckets holding a slice's first or last position are sorted. The cost
/// falls as γ grows and as values spread evenly over their range; a window
/// whose values crowd into a few buckets costs up to a full sort plus the
/// scatter. A \p gamma of 0 counts as 1.
void OrderSlices(std::vector<Event>* events, uint64_t gamma);

/// \brief Collects one local window's events and yields them fully sorted.
///
/// The sort order is the global event order `(value, timestamp, node, seq)`,
/// which makes ranks — and therefore exact quantiles — well defined across
/// duplicate values.
class SortedWindowBuffer {
 public:
  /// Creates a buffer with the given strategy.
  explicit SortedWindowBuffer(SortMode mode = SortMode::kSortOnClose)
      : mode_(mode) {}

  /// Adds one event. An append into spare capacity is small enough to
  /// inline into the ingest path; growing the vector and the kIncremental
  /// tree insert stay out of line.
  void Add(const Event& e) {
    if (mode_ == SortMode::kSortOnClose && vec_.size() < vec_.capacity())
        [[likely]] {
      // What the test above proved, in the terms `push_back` tests, so its
      // growth path and the registers that path saves drop out.
      if (vec_.end() == vec_.begin() + vec_.capacity()) __builtin_unreachable();
      vec_.push_back(e);
    } else {
      AddSlow(e);
    }
  }

  /// Makes room for \p n events up front (no-op for kIncremental).
  void Reserve(size_t n) {
    if (mode_ == SortMode::kSortOnClose) vec_.reserve(n);
  }

  /// Number of events added so far.
  uint64_t size() const;

  /// True when nothing was added.
  bool empty() const { return size() == 0; }

  /// Finishes the window: returns all events sorted (`SortEvents`) and
  /// leaves the buffer empty and reusable.
  std::vector<Event> TakeSorted();

  /// Finishes the window without paying for the sort on this thread: returns
  /// the events as cheaply as possible and reports through \p is_sorted
  /// whether they already obey the global order (kIncremental) or still need
  /// sorting (kSortOnClose insertion order). Used by the executor-backed
  /// close path, which moves the sort onto a worker.
  std::vector<Event> TakeRaw(bool* is_sorted);

  /// Visits every buffered event (in insertion or sorted order depending on
  /// the mode) without draining — used by checkpointing.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (mode_ == SortMode::kSortOnClose) {
      for (const Event& e : vec_) fn(e);
    } else {
      for (const Event& e : ordered_) fn(e);
    }
  }

 private:
  /// `Add` when the vector is full, or in kIncremental mode.
  void AddSlow(const Event& e);

  SortMode mode_;
  std::vector<Event> vec_;       // kSortOnClose
  std::multiset<Event> ordered_;  // kIncremental
};

}  // namespace dema::stream
