#pragma once

#include <cstdint>
#include <vector>

#include "common/event.h"
#include "common/result.h"
#include "dema/slice.h"
#include "net/codec.h"
#include "net/message.h"

namespace dema::core {

using net::WindowId;

/// The u32 after a `SynopsisBatch` header: below `kSynopsisFormMarkers` it is
/// the slice count of the slice form; at or above it, a form marker.
inline constexpr uint32_t kSynopsisFormMarkers = 0x80000000u;
/// Form marker of the events form: the window's sorted events follow.
inline constexpr uint32_t kSynopsisEventsForm = 0xFFFFFFFFu;

/// \brief Local -> root: all slice synopses for one closed local window
/// (identification step).
///
/// Sent exactly once per (node, window), also when the local window is empty
/// — the root needs to hear from every node before it can align the global
/// window.
///
/// On the wire a batch takes one of two forms, chosen from the batch itself.
/// A non-empty single-node batch cut at γ = 2 (every slice but a one-event
/// trailer holds two events, all in ascending order) is its window's sorted
/// events in `codec` — 24 B per event in kFixed where the slices cost 32 —
/// and decodes back into exactly the slices `CutIntoSlices(events, node, 2)`
/// gives. Every other batch is its slices; a relay's combined batch, whose
/// children's slices seldom form one sorted window, almost always is.
struct SynopsisBatch {
  WindowId window_id = 0;
  NodeId node = 0;
  /// Total events in this node's local window (= sum of slice counts).
  uint64_t local_window_size = 0;
  /// Gamma the window was cut with (lets the root sanity-check positions).
  uint32_t gamma_used = 0;
  /// Processing-time instant the local window closed (latency metric input;
  /// part of the wire format like any other protocol field).
  TimestampUs close_time_us = 0;
  std::vector<SliceSynopsis> slices;
  /// Event encoding of the events form (the node's reply codec). Not decoded:
  /// the events form names its codec itself.
  net::EventCodec codec = net::EventCodec::kFixed;

  /// Writes the events form when the batch qualifies, else the slice form.
  void SerializeTo(net::Writer* w) const;
  /// Writes the slice form, whatever the batch.
  void SerializeSlicesTo(net::Writer* w) const;
  static Result<SynopsisBatch> Deserialize(net::Reader* r);
  /// Decodes into \p out, reusing its slice buffer (the root keeps one
  /// scratch batch instead of allocating per message).
  static Status DeserializeInto(net::Reader* r, SynopsisBatch* out);
};

/// \brief Root -> local: request the raw events of the given slices of one
/// window (calculation step).
struct CandidateRequest {
  WindowId window_id = 0;
  /// Slice indices within the local window, ascending.
  std::vector<uint32_t> slice_indices;

  void SerializeTo(net::Writer* w) const;
  static Result<CandidateRequest> Deserialize(net::Reader* r);
  /// Decodes into \p out, reusing its index buffer.
  static Status DeserializeInto(net::Reader* r, CandidateRequest* out);
};

/// \brief Local -> root: the requested candidate events, pre-sorted.
///
/// Requested slices are disjoint index ranges of the node's window in the
/// global order, each sorted before it is served, so their concatenation in
/// index order is itself sorted — the root only merges across nodes, never
/// re-sorts.
struct CandidateReply {
  WindowId window_id = 0;
  NodeId node = 0;
  /// Wire encoding for the (sorted) candidate events.
  net::EventCodec codec = net::EventCodec::kFixed;
  std::vector<Event> events;

  void SerializeTo(net::Writer* w) const;
  static Result<CandidateReply> Deserialize(net::Reader* r);
  /// Decodes into \p out, reusing its event buffer.
  static Status DeserializeInto(net::Reader* r, CandidateReply* out);
  uint64_t WireEventCount() const { return events.size(); }
};

/// \brief Root -> local broadcast: slice factor to use from a given window on
/// (adaptive gamma, Section 3.3).
struct GammaUpdate {
  /// First window id the new factor applies to.
  WindowId effective_from = 0;
  uint32_t gamma = 0;

  void SerializeTo(net::Writer* w) const;
  static Result<GammaUpdate> Deserialize(net::Reader* r);
};

/// \brief Local -> root: request the current slice factor after a restart.
///
/// A local that resumed from a checkpoint may have missed gamma broadcasts
/// while it was down; the root answers with a regular `GammaUpdate` carrying
/// its current factor for the node (`effective_from` 0 — the local clamps it
/// to its own emission frontier).
struct GammaSyncRequest {
  /// The requesting node (authoritative even if the envelope src differs).
  NodeId node = 0;

  void SerializeTo(net::Writer* w) const;
  static Result<GammaSyncRequest> Deserialize(net::Reader* r);
};

/// \brief Final aggregation output for one global window and one quantile.
struct WindowResult {
  WindowId window_id = 0;
  /// The queried quantile in (0, 1].
  double q = 0.5;
  /// The exact quantile event (undefined when `global_size` is 0).
  Event result;
  /// Global window size l_G.
  uint64_t global_size = 0;
  /// Latency from the last local-window close to result emission.
  DurationUs latency_us = 0;

  void SerializeTo(net::Writer* w) const;
  static Result<WindowResult> Deserialize(net::Reader* r);
};

}  // namespace dema::core
