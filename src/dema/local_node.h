#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "dema/protocol.h"
#include "exec/executor.h"
#include "net/dedup.h"
#include "obs/registry.h"
#include "transport/transport.h"
#include "sim/node.h"
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
  /// How local windows are kept sorted.
  stream::SortMode sort_mode = stream::SortMode::kSortOnClose;
  /// Tolerate at-least-once delivery: a candidate request for an
  /// already-released window is treated as a retransmission and ignored.
  bool tolerate_duplicates = true;
  /// Wire encoding for candidate replies.
  net::EventCodec reply_codec = net::EventCodec::kFixed;
  /// Recently served windows kept around (bounded ring) so a root retry after
  /// a lost reply can be re-served instead of hitting the released-window
  /// path. 0 disables re-serving (windows drop on first successful reply).
  size_t served_window_cap = 4;
  /// Metrics sink for the `local.*{node=N}` instruments. When null, the node
  /// owns a private registry (reachable via `registry()`). Must outlive the
  /// node when provided.
  obs::Registry* registry = nullptr;
  /// Worker pool for closed-window sort+slice. When set, each closed window
  /// is prepared asynchronously so ingest never blocks on the O(n log n)
  /// close-time work; synopses still ship in window-id order (sequenced
  /// completion buffer). When null (default), windows are prepared inline on
  /// the calling thread — output is byte-identical either way. Must outlive
  /// the node when provided; may be shared between nodes.
  exec::Executor* executor = nullptr;
};

/// \brief Dema's edge-side node (Sections 3.1, 3.3).
///
/// Sorts each closed local window, cuts it into γ-sized slices, ships only
/// the slice synopses to the root, and retains the window's events until the
/// root's candidate request arrives — at which point it replies with the
/// requested slices' events and drops the window. γ updates from the root
/// take effect per window id.
class DemaLocalNode final : public sim::LocalNodeLogic {
 public:
  /// \p transport and \p clock must outlive the node.
  DemaLocalNode(DemaLocalNodeOptions options, transport::Transport* transport,
                const Clock* clock);
  /// Removes this node's share from the retained-memory gauges.
  ~DemaLocalNode() override;
  DemaLocalNode(const DemaLocalNode&) = delete;
  DemaLocalNode& operator=(const DemaLocalNode&) = delete;

  Status OnEvent(const Event& e) override;
  Status OnWatermark(TimestampUs watermark_us) override;
  Status OnFinish(TimestampUs final_watermark_us) override;
  Status OnMessage(const net::Message& msg) override;

  /// Slice factor that would apply to window \p id right now. For historic
  /// ids older than every schedule entry (possible after pruning or restore),
  /// returns the oldest-known effective γ rather than a future entry's value.
  uint64_t GammaForWindow(net::WindowId id) const;

  /// Windows currently retained for candidate serving (memory accounting).
  size_t retained_windows() const { return retained_.size(); }

  /// Events ingested so far.
  uint64_t events_ingested() const { return c_events_ingested_->Value(); }

  /// The registry this node records into (the options-provided one, or the
  /// node's own private registry).
  obs::Registry* registry() const { return registry_; }

  /// Blocks until every executor-submitted window close has been prepared
  /// and its synopsis shipped (no-op without an executor or when nothing is
  /// in flight). Call before `Checkpoint` — a snapshot must not race
  /// in-flight closes — and at end of stream. Idempotent.
  Status FlushPendingCloses();

  /// Driver-visible alias for `FlushPendingCloses` (see `LocalNodeLogic`).
  Status Quiesce() override { return FlushPendingCloses(); }

  /// Asks the root for the current slice factor. Call after `Restore`: the
  /// node may have missed γ broadcasts while it was down, and cutting the
  /// next windows with a stale factor skews the cost model until the next
  /// regular broadcast happens to arrive.
  Status ResyncGamma();

  /// Serializes the node's complete mutable state — open window buffers,
  /// watermark, retained (shipped but unreleased) windows, γ schedule, and
  /// the emission frontier — so a restarted edge device can resume without
  /// violating the protocol (checkpoint/recovery support).
  void Checkpoint(net::Writer* w) const;

  /// Replaces this node's state with a `Checkpoint` snapshot taken by a node
  /// with the same options. Fails (leaving the node unusable) on corrupt or
  /// incompatible snapshots.
  Status Restore(net::Reader* r);

 private:
  /// One window's close-time work product: everything a worker computes off
  /// the ingest thread, sequenced back into window-id order before shipping.
  struct PreparedWindow {
    net::WindowId id = 0;
    uint64_t gamma = 0;
    std::vector<Event> sorted;
    std::vector<SliceSynopsis> slices;
    /// Slice-cut failure, surfaced when the window ships.
    Status status;
  };

  /// Ships synopses for every closed window id in [next_window_to_emit_,
  /// up_to] — including empty windows — and retains their events. With an
  /// executor, submits the sort+slice per window and drains whatever has
  /// completed (in id order) without blocking.
  Status EmitClosedWindows(std::vector<stream::ClosedWindow> closed,
                           net::WindowId up_to_exclusive);
  /// Inline path: sorts/cuts and ships one window on the calling thread.
  Status EmitWindow(net::WindowId id, std::vector<Event> sorted);
  /// Async path: queues one window's sort+slice on the executor. γ is fixed
  /// here, at submission, so the schedule frontier semantics match the
  /// inline path exactly.
  Status SubmitWindowClose(net::WindowId id, std::vector<Event> events,
                           bool is_sorted);
  /// Ships ready prepared windows from the front of the completion buffer;
  /// blocks on stragglers only when \p block is set.
  Status DrainPreparedCloses(bool block);
  /// Sends one prepared window's synopsis batch, retains its events, and
  /// prunes the γ schedule (common tail of both paths).
  Status ShipPrepared(PreparedWindow prepared);
  Status HandleCandidateRequest(const CandidateRequest& req);
  Status HandleGammaUpdate(const GammaUpdate& update);
  /// Applies this node's retained-memory change to the gauges (count,
  /// events) and raises the peak gauge to the summed events.
  void UpdateRetainedGauges();

  /// A shipped window retained for candidate serving, together with the γ it
  /// was cut with (slice index ranges must be reconstructed with the same γ
  /// even after later γ updates).
  struct RetainedWindow {
    uint64_t gamma = 0;
    std::vector<Event> sorted;
  };

  DemaLocalNodeOptions options_;
  transport::Transport* transport_;
  const Clock* clock_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  stream::WindowManager windows_;
  /// Sorted events of shipped windows, kept until the root releases them.
  std::map<net::WindowId, RetainedWindow> retained_;
  /// Bounded ring of already-served windows (oldest evicted first): a reply
  /// can be lost in flight, and the root's retried request must find the
  /// events again. Released together with `retained_`.
  std::map<net::WindowId, RetainedWindow> served_;
  /// Transport-level duplicate suppression over message sequence numbers.
  net::SeqDedup dedup_;
  /// γ schedule: effective-from window id -> γ. Always non-empty.
  std::map<net::WindowId, uint64_t> gamma_schedule_;
  /// γ in effect at the start of known history; the answer for window ids
  /// older than every remaining schedule entry. Survives checkpoints.
  uint64_t oldest_known_gamma_;
  net::WindowId next_window_to_emit_ = 0;
  /// Sequenced completion buffer: futures for submitted window closes, in
  /// window-id (== submission) order. Only the front may ship, so synopses
  /// leave in id order no matter how the pool reorders completions.
  std::deque<std::future<PreparedWindow>> inflight_closes_;
  /// Events currently held in `retained_` (memory accounting).
  uint64_t retained_event_count_ = 0;
  /// This node's share of the retained gauges, as last applied.
  int64_t reported_windows_ = 0;
  int64_t reported_events_ = 0;
  /// Cached registry instruments.
  obs::Counter* c_events_ingested_;
  obs::Counter* c_windows_shipped_;
  obs::Counter* c_send_failures_;
  obs::Counter* c_duplicates_ignored_;
  obs::Gauge* g_retained_windows_;
  obs::Gauge* g_retained_events_;
  obs::Gauge* g_retained_events_peak_;
};

}  // namespace dema::core
