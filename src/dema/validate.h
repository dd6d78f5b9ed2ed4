#pragma once

#include <cstdint>
#include <vector>

#include "dema/protocol.h"
#include "dema/slice.h"

namespace dema::core {

/// \brief Strict content validation of inbound Dema protocol payloads.
///
/// Wire decoding only proves a payload is *parseable*; these checks prove it
/// is *protocol-consistent* before the root lets it near the window-cut or
/// the quantile. Each validator returns `nullptr` when the payload is clean,
/// or a short stable reason slug (e.g. "slice_bounds") otherwise — the root
/// feeds the slug straight into its `dema.rejected{reason=}` counter and
/// drops the payload instead of poisoning the answer.
///
/// The rules are exactly the invariants an honest local upholds by
/// construction (see `CutIntoSlices` and `DemaLocalNode`), so a rejection is
/// always evidence of corruption or misbehaviour, never a false positive.

/// Validates a synopsis batch from envelope sender \p src. Always checked:
///  - the declared node matches the envelope sender (and every slice's node
///    matches the batch's);
///  - `gamma_used` >= 2 (the paper's minimum slice factor);
///  - slice indices are 0..n-1 ascending;
///  - each slice has `count` >= 1, `first` <= `last`, finite bound values,
///    and `first` == `last` when `count` is 1 (the root reads a slice of
///    ≤ 2 events from its synopsis, `KnownFromSynopsis`);
///  - the slice counts sum to `local_window_size`, without wrapping.
/// With \p strict (flat topologies, where the sender cut one sorted local
/// window itself — a relay's combined batch legitimately interleaves its
/// children's cuts):
///  - the slice count equals ceil(local_window_size / gamma_used);
///  - every non-trailing slice carries exactly gamma_used events;
///  - consecutive slices do not overlap (`slices[i].last` <=
///    `slices[i+1].first` — slices partition a sorted window).
/// Returns nullptr when valid, else the rejection reason slug.
const char* ValidateSynopsisBatch(const SynopsisBatch& batch, NodeId src,
                                  bool strict);

/// Validates a candidate reply from envelope sender \p src against the
/// synopses the root accepted (\p requested, the synopses of the slices it
/// asked this node for, in ascending index order). Always checked:
///  - the declared node matches the envelope sender;
///  - the event count equals the sum of the requested slices' declared
///    counts;
///  - events are sorted by the global event order with finite values.
/// With \p strict (flat topologies; a relay merges its children's slices
/// into one run, which reorders events across slice segments):
///  - each requested slice's events fall inside that slice's declared
///    [first, last] synopsis bounds, with the boundary events matching them
///    exactly.
/// Returns nullptr when valid, else the rejection reason slug.
const char* ValidateCandidateReply(const CandidateReply& reply, NodeId src,
                                   const std::vector<SliceSynopsis>& requested,
                                   bool strict);

}  // namespace dema::core
