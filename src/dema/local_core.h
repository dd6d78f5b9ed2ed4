#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "dema/protocol.h"
#include "obs/registry.h"
#include "stream/window_manager.h"

namespace dema::core {

/// \brief Configuration of a Dema local node.
struct DemaLocalNodeOptions {
  /// This node's id.
  NodeId id = 1;
  /// The root node's id.
  NodeId root_id = 0;
  /// Window lifespan (same on every node).
  DurationUs window_len_us = kMicrosPerSecond;
  /// Slide step; 0 (default) or == window_len_us gives the paper's tumbling
  /// windows, smaller values give overlapping sliding windows — each window
  /// id still runs the identification/calculation protocol independently.
  DurationUs window_slide_us = 0;
  /// Slice factor until the root broadcasts an update.
  uint64_t initial_gamma = 10'000;
  /// Wire encoding for candidate replies.
  net::EventCodec reply_codec = net::EventCodec::kFixed;
  /// Metrics sink for the `local.*{node=N}` instruments. When null, the node
  /// owns a private registry (reachable via `registry()`). Must outlive the
  /// node when provided.
  obs::Registry* registry = nullptr;
};

/// \brief Where the local core's outbound payloads go.
///
/// The core never touches a transport: the single-key local frames each
/// payload as its own message to the root, a keyed local serializes it
/// straight into the keyed batch of the key's shard.
class LocalSink {
 public:
  virtual Status SendSynopsis(const SynopsisBatch& batch) = 0;
  virtual Status SendReply(const CandidateReply& reply) = 0;
  virtual Status SendGammaSync(const GammaSyncRequest& sync) = 0;

 protected:
  ~LocalSink() = default;
};

/// A shipped window kept for candidate serving, together with the γ it was
/// cut with (slice index ranges must be reconstructed with the same γ even
/// after later γ updates).
struct KeptWindow {
  net::WindowId id = 0;
  uint64_t gamma = 0;
  /// Already served once: kept only in the bounded served ring (oldest id
  /// evicted first), because a reply can be lost in flight and the root's
  /// retried request must find the events again.
  bool served = false;
  /// The window's events, slice-ordered for `gamma` (`stream::OrderSlices`):
  /// each slice holds exactly its events, with its first and last in place.
  /// A slice's interior is sorted when the slice is first served.
  std::vector<Event> events;
};

/// \brief Compact per-stream protocol state: everything one local stream
/// (one key of a keyed local, or the whole single-key local) owns. The
/// shared `LocalCore` does all the work on it.
struct LocalStream {
  stream::WindowManager windows;
  /// Events of shipped windows, ascending by id: retained ones until
  /// the root releases them, then the served ring. Released together.
  std::vector<KeptWindow> kept;
  /// γ schedule: (effective-from window id, γ), ascending. Always non-empty.
  std::vector<std::pair<net::WindowId, uint64_t>> gamma_schedule;
  /// γ in effect at the start of known history; the answer for window ids
  /// older than every remaining schedule entry. Survives checkpoints.
  uint64_t oldest_known_gamma;
  net::WindowId next_window_to_emit = 0;

  /// A fresh stream for a core with options \p o.
  explicit LocalStream(const DemaLocalNodeOptions& o);
  /// Windows currently retained for candidate serving (memory accounting).
  size_t retained_windows() const {
    return static_cast<size_t>(std::count_if(
        kept.begin(), kept.end(), [](const KeptWindow& w) { return !w.served; }));
  }
};

/// \brief Dema's edge-side protocol (Sections 3.1, 3.3), shared by every
/// stream it serves.
///
/// Slice-orders each closed local window (`stream::OrderSlices`), cuts it
/// into γ-sized slices, ships only the slice synopses to the root, and
/// retains the window's events until the root's candidate request arrives —
/// at which point it sorts the requested slices, replies with their events
/// and drops the window. A window no bigger than
/// its own candidate round trip is cut at γ = 2 instead (`CutAtGammaTwo`);
/// the root reads every slice of ≤ 2 events from its synopsis, so such a
/// window is never retained. γ updates from the root take effect per
/// window id.
///
/// Holds what streams share — options, cached `local.*{node=N}` instruments,
/// clock, scratch and the node's retained-memory totals — and
/// works on one `LocalStream` per call. It has no transport: payloads leave
/// through a `LocalSink`.
///
/// Not thread-safe; callers serialize all calls.
class LocalCore {
 public:
  /// Recently served windows kept per stream for re-serving.
  static constexpr size_t kServedWindowCap = 4;

  /// \p clock must outlive the core.
  LocalCore(DemaLocalNodeOptions options, const Clock* clock);

  /// Routes one event into \p s. A late one (below the watermark) is
  /// counted into `local.late_events` and dropped; one whose value is NaN
  /// or ±Inf is counted into `local.rejected_values` and dropped. Inline,
  /// with the window manager's hot-window path, so an event for the open
  /// window costs an append and a single-writer counter add.
  void OnEvent(LocalStream* s, const Event& e) {
    // The core's calls are serialized, so the ingest counter has one
    // writer at a time, and other threads still read it live.
    c_events_ingested_->IncrementSingleWriter();
    if (!std::isfinite(e.value)) [[unlikely]] {
      // NaN has no place in the total order, and the root rejects a
      // synopsis carrying any non-finite value as `bad_value`: drop the
      // event, not the window.
      c_rejected_values_->Increment();
      return;
    }
    if (!s->windows.OnEvent(e)) [[unlikely]] c_late_events_->Increment();
  }
  /// Ships synopses for every window id of \p s the watermark closed —
  /// including empty windows — and retains the events of those holding a
  /// slice of more than two events. Each window is slice-ordered, cut and
  /// shipped before the next, in window-id order.
  Status OnWatermark(LocalStream* s, TimestampUs watermark_us, LocalSink* sink);
  /// Decodes and applies one payload of type \p type (candidate request, γ
  /// update or shutdown).
  Status OnPayload(LocalStream* s, net::MessageType type,
                   net::ByteSpan payload, LocalSink* sink);
  /// Asks the root for the current slice factor. Call after `Restore`: the
  /// node may have missed γ broadcasts while it was down, and cutting the
  /// next windows with a stale factor skews the cost model until the next
  /// regular broadcast happens to arrive.
  Status ResyncGamma(LocalSink* sink) const;

  /// Slice factor that would apply to window \p id of \p s right now. For
  /// historic ids older than every schedule entry (possible after pruning or
  /// restore), returns the oldest-known effective γ rather than a future
  /// entry's value.
  uint64_t GammaForWindow(const LocalStream& s, net::WindowId id) const;

  /// Serializes the complete mutable state of \p s — open window buffers,
  /// watermark, retained (shipped but unreleased) windows, γ schedule, and
  /// the emission frontier — so a restarted edge device can resume without
  /// violating the protocol (checkpoint/recovery support).
  void Checkpoint(const LocalStream& s, net::Writer* w) const;
  /// Replaces \p s with a `Checkpoint` snapshot taken by a core with the
  /// same options. Fails (leaving \p s unusable) on corrupt or incompatible
  /// snapshots.
  Status Restore(LocalStream* s, net::Reader* r);

  /// Counts one transport-level duplicate absorbed before the core.
  void CountDuplicate() { c_duplicates_ignored_->Increment(); }

  const DemaLocalNodeOptions& options() const { return options_; }
  /// The registry this core records into (the options-provided one, or the
  /// core's own private registry).
  obs::Registry* registry() const { return registry_; }
  uint64_t events_ingested() const { return c_events_ingested_->Value(); }

 private:
  /// Slice-orders and cuts closed window \p id of \p s (its \p events at
  /// slice factor \p gamma), sends its synopsis batch, retains its events,
  /// and prunes the γ schedule.
  Status ShipWindow(LocalStream* s, net::WindowId id, uint64_t gamma,
                    std::vector<Event> events, LocalSink* sink);
  Status HandleCandidateRequest(LocalStream* s, const CandidateRequest& req,
                                LocalSink* sink);
  /// Applies a change of the retained totals to the gauges and raises the
  /// peak gauge.
  void AddRetained(int64_t windows, int64_t events);

  DemaLocalNodeOptions options_;
  const Clock* clock_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  /// Windows and events retained over every stream (memory accounting).
  int64_t retained_windows_ = 0;
  int64_t retained_events_ = 0;
  /// Scratch reply, reused by every serve.
  CandidateReply reply_;
  /// Cached registry instruments.
  obs::Counter* c_events_ingested_;
  obs::Counter* c_late_events_;
  obs::Counter* c_rejected_values_;
  obs::Counter* c_windows_shipped_;
  obs::Counter* c_send_failures_;
  obs::Counter* c_duplicates_ignored_;
  obs::Gauge* g_retained_windows_;
  obs::Gauge* g_retained_events_;
  obs::Gauge* g_retained_events_peak_;
};

}  // namespace dema::core
