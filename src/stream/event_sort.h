#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/event.h"

namespace dema::stream {

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

}  // namespace dema::stream
