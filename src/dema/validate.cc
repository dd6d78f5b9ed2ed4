#include "dema/validate.h"

#include <cmath>

namespace dema::core {

namespace {

bool FiniteValue(const Event& e) { return std::isfinite(e.value); }

}  // namespace

const char* ValidateSynopsisBatch(const SynopsisBatch& batch, NodeId src,
                                  bool strict) {
  if (batch.node != src) return "node_mismatch";
  if (batch.gamma_used < 2) return "bad_gamma";
  const uint64_t gamma = batch.gamma_used;
  if (strict) {
    const uint64_t expected_slices =
        (batch.local_window_size + gamma - 1) / gamma;
    if (batch.slices.size() != expected_slices) return "slice_count";
  }
  uint64_t total = 0;
  for (size_t i = 0; i < batch.slices.size(); ++i) {
    const SliceSynopsis& s = batch.slices[i];
    if (s.node != batch.node) return "node_mismatch";
    if (s.index != i) return "slice_index";
    if (s.count == 0) return "empty_slice";
    if (!FiniteValue(s.first) || !FiniteValue(s.last)) return "bad_value";
    // A one-event slice is its own first and last: the root reads it from
    // the synopsis.
    if (s.last < s.first || (s.count == 1 && s.first != s.last)) {
      return "slice_bounds";
    }
    if (strict) {
      // Every slice but the trailing one is exactly gamma events; the
      // trailer holds the remainder (1..gamma). `SliceEventRange` encodes
      // the same cut.
      const uint64_t expected_count =
          i + 1 < batch.slices.size()
              ? gamma
              : batch.local_window_size - (batch.slices.size() - 1) * gamma;
      if (s.count != expected_count) return "slice_size";
      if (i > 0 && s.first < batch.slices[i - 1].last) return "slice_overlap";
    }
    if (__builtin_add_overflow(total, s.count, &total)) return "size_mismatch";
  }
  if (total != batch.local_window_size) return "size_mismatch";
  return nullptr;
}

const char* ValidateCandidateReply(const CandidateReply& reply, NodeId src,
                                   const std::vector<SliceSynopsis>& requested,
                                   bool strict) {
  if (reply.node != src) return "node_mismatch";
  uint64_t expected = 0;
  for (const SliceSynopsis& s : requested) expected += s.count;
  if (reply.events.size() != expected) return "run_size";
  for (size_t i = 0; i < reply.events.size(); ++i) {
    if (!FiniteValue(reply.events[i])) return "bad_value";
    if (i > 0 && reply.events[i] < reply.events[i - 1]) return "unsorted_run";
  }
  // Segment the run by the requested slices' declared counts and hold each
  // segment to its synopsis: boundary events equal (first, last) exactly and
  // everything in between stays inside the declared range. A reply that
  // disagrees with the synopsis the window-cut was computed from would shift
  // ranks silently — reject it here instead. Only flat topologies keep the
  // per-slice segmentation; a relay merges its children's slices into one
  // run, so in tree mode the structural checks above are the whole contract.
  if (strict) {
    size_t at = 0;
    for (const SliceSynopsis& s : requested) {
      const Event& lo = reply.events[at];
      const Event& hi = reply.events[at + s.count - 1];
      if (lo != s.first || hi != s.last) return "bounds_mismatch";
      at += s.count;
    }
  }
  return nullptr;
}

}  // namespace dema::core
