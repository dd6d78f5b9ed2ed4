#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "common/event.h"
#include "common/result.h"
#include "net/serializer.h"

namespace dema::core {

/// \brief Synopsis of one sorted local-window slice (Section 3.1).
///
/// The unit of Dema's identification step: instead of the slice's events, a
/// local node ships only the slice's first and last event, its event count,
/// and its position within the node's slice sequence. Together with every
/// other synopsis, this is enough for the root to bound the global rank range
/// each slice can cover.
struct SliceSynopsis {
  /// Local node that produced the slice.
  NodeId node = 0;
  /// Index of this slice within its node's local window (0-based; slices of
  /// one node are in ascending value order).
  uint32_t index = 0;
  /// Smallest event in the slice.
  Event first;
  /// Largest event in the slice.
  Event last;
  /// Number of events in the slice (>= 1; the trailing slice of a window may
  /// be smaller than gamma).
  uint64_t count = 0;

  /// Serializes this synopsis.
  void SerializeTo(net::Writer* w) const;
  /// Parses a synopsis.
  static Status DeserializeInto(net::Reader* r, SliceSynopsis* out);
};

std::ostream& operator<<(std::ostream& os, const SliceSynopsis& s);

/// Wire size of one serialized `SliceSynopsis`: node, index, first, last,
/// count.
inline constexpr uint64_t kSliceSynopsisWireBytes =
    2 * sizeof(uint32_t) + 2 * kEventWireBytes + sizeof(uint64_t);

/// \brief True when the root knows every event of slice \p s from its
/// synopsis alone: a slice of at most two events is its `first` and `last`.
/// Such a slice is never requested.
inline bool KnownFromSynopsis(const SliceSynopsis& s) { return s.count <= 2; }

/// Whether the node that cut \p slices keeps their window for serving: it
/// does exactly when one of them is not known from its synopsis, since no
/// other slice is ever requested. The node and every parent that releases it
/// decide by this one rule.
inline bool Retained(std::span<const SliceSynopsis> slices) {
  return !std::all_of(slices.begin(), slices.end(), KnownFromSynopsis);
}

/// \brief Cuts a local window into slices of at most \p gamma events and
/// returns their synopses (the trailing slice holds the remainder). The
/// window must be sorted, or slice-ordered for \p gamma
/// (`stream::OrderSlices`): only each slice's first and last event are read.
///
/// \p gamma must be >= 2 — the paper requires every slice to carry at least
/// two events' worth of synopsis; the final slice may still end up with one
/// event when the window size is not a multiple of gamma.
Result<std::vector<SliceSynopsis>> CutIntoSlices(const std::vector<Event>& sorted,
                                                 NodeId node, uint64_t gamma);

/// \brief `CutIntoSlices` into \p out, reusing its buffer; \p gamma must be
/// >= 2.
void CutIntoSlicesInto(std::span<const Event> sorted, NodeId node,
                       uint64_t gamma, std::vector<SliceSynopsis>* out);

/// \brief Returns the half-open index range [begin, end) of slice \p index in
/// a window of \p window_size events cut with \p gamma.
inline std::pair<uint64_t, uint64_t> SliceEventRange(uint64_t window_size,
                                                     uint64_t gamma,
                                                     uint32_t index) {
  uint64_t begin = static_cast<uint64_t>(index) * gamma;
  uint64_t end = std::min(window_size, begin + gamma);
  return {begin, end};
}

}  // namespace dema::core
