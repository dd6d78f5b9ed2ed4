#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "dema/adaptive_gamma.h"
#include "dema/protocol.h"
#include "dema/window_cut.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/node.h"
#include "stream/merge.h"

namespace dema::core {

/// \brief The root's recovery machinery: per-window deadlines with retries,
/// and the misbehaving-local quarantine. The one declaration of these
/// settings; every config that runs a Dema root embeds it.
struct RootRecoveryOptions {
  /// Per-window progress deadline, measured in `Tick()` calls: a pending
  /// window that makes no progress for this many ticks gets its candidate
  /// requests retried (with exponential backoff), and after `max_retries`
  /// attempts is emitted degraded. 0 (default) disables the deadline
  /// machinery entirely — the legacy wait-forever behavior. With a deadline
  /// enabled, transport send failures also become survivable (counted in
  /// `root.send_failures` instead of failing the node). Drivers tick at
  /// window boundaries (sim) or run-loop timeouts (TCP).
  uint64_t deadline_ticks = 0;
  /// Recovery attempts per window before degrading (with deadlines on).
  uint32_t max_retries = 3;
  /// Misbehaving-local quarantine: after this many rejected payloads a local
  /// is excluded from the window protocol — its payloads are dropped, it is
  /// left out of completion expectations and the window-cut, and affected
  /// windows emit through the degraded path with `cause=quarantine` and a
  /// rank-error bound. 0 (default) disables quarantine; rejections are still
  /// counted in `dema.rejected{reason=}` and dropped.
  uint32_t quarantine_strikes = 0;
  /// Windows a quarantined local sits out before probation begins.
  uint64_t probation_windows = 8;
  /// Exact windows a probation local must contribute cleanly before full
  /// re-admission; any rejection during probation re-quarantines it.
  uint32_t probation_clean_windows = 2;

  /// Ticks after which every pending window has completed or degraded: the
  /// full `deadline_ticks << retries` backoff, plus slack for the gap-fill
  /// tick and in-flight deliveries.
  uint64_t DrainTicks() const {
    return deadline_ticks *
               (uint64_t{2} << std::min<uint32_t>(max_retries, 32)) +
           deadline_ticks + 64;
  }
};

/// \brief Configuration of the Dema root node.
struct DemaRootNodeOptions {
  /// This node's id.
  NodeId id = 0;
  /// Ids of all local nodes contributing to global windows.
  std::vector<NodeId> locals;
  /// Quantiles to answer per window, each in (0, 1]. One identification step
  /// serves all of them (multi-quantile extension). Validated at
  /// construction; a bad quantile fails every OnMessage instead of poisoning
  /// a running cluster mid-stream.
  std::vector<double> quantiles = {0.5};
  /// Initial slice factor (also broadcast target when adaptation is off).
  uint64_t initial_gamma = 10'000;
  /// Re-optimize γ after every window (Section 3.3) and broadcast updates.
  bool adaptive_gamma = false;
  /// Controller tuning (used when adaptive_gamma is true).
  GammaControllerOptions gamma_options;
  /// Paper's future-work extension: optimize a separate γ per local node
  /// from that node's own window size and candidate-slice count
  /// (γ_i* = sqrt(2·l_i / m_i)), instead of one global factor. Only
  /// meaningful with adaptive_gamma; heterogeneous event rates benefit most.
  bool per_node_gamma = false;
  /// Ablation: replace window-cut with naive transitive-overlap selection.
  /// Only valid with a single quantile (checked at construction).
  bool use_naive_selection = false;
  /// Deadline, retry and quarantine machinery.
  RootRecoveryOptions recovery;
  /// Hold inbound payloads to the strict flat-topology protocol rules (see
  /// `ValidateSynopsisBatch`): slices form an exact γ-cut of one sorted local
  /// window. A node whose `locals` are relays turns this off — a relay's
  /// combined batch legitimately interleaves its children's cuts — keeping
  /// only the structural rules (node identity, finite sorted values, sizes
  /// that add up).
  bool strict_validation = true;
  /// Set on a relay: the upstream node (the root, or another relay). A relay
  /// collects, deduplicates and validates its `locals` (its children) like
  /// the root, but ships each complete synopsis set upward as one combined
  /// batch instead of running window-cut, fans the parent's candidate
  /// request out to the children, and merges their replies into one sorted
  /// reply upward instead of selecting. Relays run without `recovery`.
  std::optional<NodeId> parent;
  /// Optional label set stamped onto every instrument this node records, as
  /// a comma-separated `key=value` list without braces (e.g. "shard=3" turns
  /// `dema.windows` into `dema.windows{shard=3}` and merges into the
  /// `dema.rejected{reason=...}` breakdown). The shard service labels each
  /// shard's per-key roots with its shard index, so instruments aggregate
  /// per shard while sharing one registry. Empty keeps the legacy names.
  std::string instrument_label;
  /// Metrics sink for the `dema.*` instruments. When null, the node owns a
  /// private registry (reachable via `registry()`), so instrumentation is
  /// always on. Must outlive the node when provided.
  obs::Registry* registry = nullptr;
  /// Optional per-window span recorder; when set, every emitted window
  /// records one `obs::WindowTrace`. Must outlive the node.
  obs::TraceRecorder* tracer = nullptr;
};

/// \brief Where the root core's outbound traffic and results go.
///
/// The core never touches a transport: the single-key root frames each
/// payload as its own message, the shard serializes it straight into the
/// keyed batch of its (destination, type) pair.
class RootSink {
 public:
  /// Sends \p req to local \p dst. A failure is absorbed by the core when
  /// deadlines are on (retry or degradation covers it).
  virtual Status SendRequest(NodeId dst, const CandidateRequest& req) = 0;
  /// Sends \p update to local \p dst.
  virtual Status SendGamma(NodeId dst, const GammaUpdate& update) = 0;
  /// Publishes one emitted window.
  virtual void Emit(const sim::WindowOutput& out) = 0;
  /// Relays only: send the combined synopsis batch, and later the merged
  /// candidate reply, to the parent \p dst. A sink without a parent keeps
  /// these defaults, which fail.
  virtual Status SendSynopsis(NodeId dst, const SynopsisBatch& batch);
  virtual Status SendReply(NodeId dst, const CandidateReply& reply);

 protected:
  ~RootSink() = default;
};

/// \brief One global window the root is aggregating. Objects are recycled
/// through the core's pool, so every buffer keeps its capacity across
/// windows.
struct RootPendingWindow {
  /// Per-local progress bits (`local_flags`).
  enum LocalFlag : uint8_t {
    kSynopsis = 1,   ///< synopsis accepted
    kReply = 2,      ///< candidate reply accepted
    kExcluded = 4,   ///< counted into `excluded_events`
    kRequested = 8,  ///< sent a request naming candidate slices
  };

  net::WindowId id = 0;
  std::vector<SliceSynopsis> slices;
  /// `LocalFlag` bits by local index.
  std::vector<uint8_t> local_flags;
  size_t synopses_received = 0;
  uint64_t global_size = 0;
  TimestampUs last_close_time_us = 0;
  /// `gamma_used` of the first accepted synopsis (a relay forwards it).
  uint32_t gamma_used = 0;
  bool requests_sent = false;
  /// Replies owed; 0 once requests are sent means the window completes at
  /// identification.
  size_t expected_replies = 0;
  std::vector<std::vector<Event>> reply_runs;
  /// Events of the candidate slices known from their synopses
  /// (`KnownFromSynopsis`), sorted: never requested, selected beside the
  /// reply runs.
  std::vector<Event> synopsis_run;
  /// Candidate slices; with `slices` it names the exact requests sent, so
  /// the deadline machinery can retransmit them.
  WindowCutResult cut;
  obs::WindowTrace trace;  // lifecycle span, recorded at emit
  /// Recovery attempts consumed.
  uint32_t retries = 0;
  /// Tick at which the deadline machinery next examines this window;
  /// pushed forward on every progress event.
  uint64_t next_check_tick = 0;
  /// Events excluded from this window because their local was quarantined
  /// (exact counts for stripped synopses, last-known-size estimates for
  /// never-arrived ones). Non-zero forces a degraded emit with
  /// `cause=quarantine` and this value as the rank-error bound.
  uint64_t excluded_events = 0;

  /// Clears every field for window \p window of \p num_locals locals,
  /// keeping buffer capacity.
  void Reset(net::WindowId window, size_t num_locals);
  bool Has(size_t idx, LocalFlag flag) const {
    return (local_flags[idx] & flag) != 0;
  }
  void Set(size_t idx, LocalFlag flag) { local_flags[idx] |= flag; }
  void Clear(size_t idx, LocalFlag flag) {
    local_flags[idx] &= static_cast<uint8_t>(~flag);
  }
};

/// \brief Per-local reputation for the misbehaving-local quarantine.
struct LocalReputation {
  enum class State { kHealthy, kQuarantined, kProbation };
  State state = State::kHealthy;
  /// Rejected payloads since the last clean slate (healthy state only).
  uint32_t strikes = 0;
  /// Quarantine: emitted windows left before probation begins.
  uint64_t probation_windows_left = 0;
  /// Probation: clean windows left before full re-admission.
  uint32_t clean_windows_needed = 0;
  /// Trusted window size from the local's last *accepted* synopsis; basis
  /// of the excluded-events estimate for windows it never contributed to.
  uint64_t last_known_size = 0;
  /// Untrusted size claimed by its last *rejected* synopsis (fallback
  /// estimate when nothing was ever accepted).
  uint64_t last_claimed_size = 0;
};

/// \brief Compact per-stream protocol state: everything one aggregation
/// stream (one key of a shard, or the whole single-key root) owns. The
/// shared `RootCore` does all the work on it.
struct RootStream {
  /// In-flight windows, ascending by id.
  std::vector<std::unique_ptr<RootPendingWindow>> pending;
  /// Emitted frontier: every id < emitted_below is emitted, plus the
  /// out-of-order ids in emitted_above (ascending).
  net::WindowId emitted_below = 0;
  std::vector<net::WindowId> emitted_above;
  /// Highest window id known to exist (from synopses or the driver horizon);
  /// gap-fill creates pending entries up to it so fully-dropped windows
  /// degrade instead of stalling silently.
  net::WindowId highest_window_seen = 0;
  bool any_window_seen = false;
  /// Per-local reputation by local index; empty while quarantine is off.
  std::vector<LocalReputation> health;
  AdaptiveGammaController gamma;
  /// γ last broadcast to every local; on a relay, the parent's latest
  /// update, which also answers a restarted child's re-sync.
  uint64_t last_broadcast_gamma = 0;
  /// Per-node controllers and last-broadcast values (per-node mode only).
  std::vector<AdaptiveGammaController> node_gamma;
  std::vector<uint64_t> node_last_broadcast;

  explicit RootStream(const AdaptiveGammaController& initial)
      : gamma(initial), last_broadcast_gamma(initial.current()) {}
};

/// \brief The Dema root protocol (Sections 3.1 and 3.3), shared by every
/// stream it serves: validation, quarantine and probation, window-cut,
/// candidate requests, merge and rank-select, deadlines and γ. With
/// `parent` set it is a relay's protocol: the same collect, validate and
/// request fan-out, with window-cut and selection left to the parent.
///
/// Holds what streams share — options, the local-id index, cached
/// instruments, clock, tracer, scratch buffers and a pool of recycled
/// pending windows — and works on one `RootStream` per call. It has no
/// transport: traffic and results leave through a `RootSink`.
///
/// Not thread-safe; callers serialize all calls.
class RootCore {
 public:
  /// \p clock must outlive the core.
  RootCore(DemaRootNodeOptions options, const Clock* clock);

  /// A fresh stream record for this core's locals and γ settings.
  RootStream NewStream() const;

  /// Decodes and applies one payload of type \p type (synopsis batch,
  /// candidate reply, γ resync or shutdown) from \p src. A payload that
  /// fails to decode or validate is dropped and counted, never fatal.
  Status OnPayload(RootStream* s, net::MessageType type, NodeId src,
                   net::ByteSpan payload, RootSink* sink);

  /// Advances the deadline clock by one tick; false (and no tick) when
  /// deadlines are off.
  bool BeginTick();
  /// Deadline pass over \p s at the current tick: gap-fill, retries with
  /// exponential backoff, and degradation of windows whose budget ran out.
  Status Tick(RootStream* s, RootSink* sink);
  /// See `DemaRootNode::NoteWindowHorizon`.
  void NoteWindowHorizon(RootStream* s, net::WindowId last) const;

  /// The per-node slice factor prescribed for \p node on \p s.
  uint64_t CurrentGammaFor(const RootStream& s, NodeId node) const;

  /// Counts one transport-level duplicate absorbed before the core.
  void CountDuplicate() { c_duplicates_ignored_->Increment(); }

  const Status& init_status() const { return init_status_; }
  const DemaRootNodeOptions& options() const { return options_; }
  obs::Registry* registry() const { return registry_; }
  uint64_t windows_emitted() const { return c_windows_->Value(); }

 private:
  using PendingWindow = RootPendingWindow;

  /// Local index of \p node, or -1 for an unknown sender.
  int64_t LocalIndex(NodeId node) const;

  Status HandleSynopsisBatch(RootStream* s, const SynopsisBatch& batch,
                             NodeId src, RootSink* sink);
  Status HandleCandidateReply(RootStream* s, CandidateReply* reply,
                              NodeId src, RootSink* sink);
  Status HandleGammaSync(RootStream* s, const GammaSyncRequest& sync,
                         NodeId src, RootSink* sink);
  /// Relays only: a candidate request or γ update from the parent. The
  /// request's indices name slices of the combined batch, which are the
  /// window's flat slice positions.
  Status HandleParentPayload(RootStream* s, net::MessageType type, NodeId src,
                             net::Reader* r, RootSink* sink);
  /// Drops an inbound payload that failed validation: counts it into
  /// `dema.rejected` (total and per \p reason) and, with quarantine enabled
  /// and \p src a known local, adds a strike — possibly quarantining it.
  /// Always resolves to OK (or an internal error from the quarantine sweep);
  /// corruption must never take the root down.
  Status RejectPayload(RootStream* s, NodeId src, const char* reason,
                       RootSink* sink);
  /// Strike accounting for local \p idx; quarantines on the K-th strike and
  /// immediately re-quarantines a striking probation local.
  Status AddStrike(RootStream* s, size_t idx, RootSink* sink);
  /// Excludes local \p idx: flips its state, then sweeps pending windows —
  /// pre-identification windows drop its accepted slices (and may now
  /// complete without it); post-identification windows still waiting on its
  /// reply emit degraded with `cause=quarantine`.
  Status QuarantineLocal(RootStream* s, size_t idx, RootSink* sink);
  /// True when local \p idx is currently excluded by quarantine.
  bool IsQuarantined(const RootStream& s, size_t idx) const;
  /// Every non-quarantined local has contributed a synopsis.
  bool SynopsesComplete(const RootStream& s, const PendingWindow& w) const;
  /// Runs identification once the (quarantine-aware) synopsis set is
  /// complete, first charging excluded-size estimates for quarantined locals
  /// that never contributed.
  Status MaybeRunIdentification(RootStream* s, PendingWindow* w,
                                RootSink* sink);
  /// Credits probation locals that contributed cleanly to a completed
  /// window; the last needed credit re-admits them.
  void CreditCleanWindow(RootStream* s, const PendingWindow& w);
  /// Emits a best-effort result for a window whose recovery budget ran out:
  /// the quantile over whatever candidate replies arrived, or an estimate
  /// from the synopses alone, flagged with a rank-error bound and \p cause.
  Status EmitDegraded(RootStream* s, PendingWindow* w, const char* cause,
                      RootSink* sink);
  /// Result of a send: with deadlines enabled a failure (e.g. dead peer
  /// mid-restart) is absorbed into `root.send_failures` — retry or
  /// degradation covers it — instead of failing the caller.
  Status BestEffort(Status sent);
  /// Empty request for window \p id: releases the window's retained
  /// events on \p dst (best effort, failures ignored).
  void SendRelease(RootSink* sink, NodeId dst, net::WindowId id);
  /// Emitted-window bookkeeping: late messages for an already-emitted window
  /// must be absorbed, never allowed to resurrect a pending entry.
  void MarkEmitted(RootStream* s, net::WindowId id);
  bool IsEmitted(const RootStream& s, net::WindowId id) const;
  /// The pending window \p id of \p s, or null.
  PendingWindow* FindPending(RootStream* s, net::WindowId id) const;
  /// The pending window \p id, created from the pool if absent.
  PendingWindow* GetOrCreatePending(RootStream* s, net::WindowId id);
  /// Removes window \p id from \p s's pending set and returns it.
  std::unique_ptr<PendingWindow> TakePending(RootStream* s, net::WindowId id);
  /// Returns a finished window's buffers to the pool.
  void Recycle(std::unique_ptr<PendingWindow> w);
  /// All synopses in: run window-cut and fire candidate requests (a relay
  /// ships the combined batch upward instead).
  Status RunIdentification(RootStream* s, PendingWindow* w, RootSink* sink);
  /// Sends every retaining local its grouped share of the candidates to
  /// fetch; a window with nothing to fetch completes now.
  Status SendRequests(RootStream* s, PendingWindow* w, RootSink* sink);
  /// Collects the candidate slices known from their synopses into
  /// `w->synopsis_run`.
  void CollectSynopsisRun(PendingWindow* w);
  /// All replies in: merge, select, emit, adapt γ (a relay merges and
  /// replies upward instead).
  Status CompleteWindow(RootStream* s, PendingWindow* w, RootSink* sink);
  /// Relays only: counts and retires window \p w once nothing more is owed.
  Status FinishRelayWindow(RootStream* s, PendingWindow* w);
  Status BroadcastGamma(net::WindowId effective_from, uint64_t gamma,
                        RootSink* sink);
  /// Per-node mode: feed each node's (l_i, m_i) observation and send
  /// node-specific updates where the prescription changed.
  Status AdaptPerNode(RootStream* s, const PendingWindow& w, RootSink* sink);
  /// Rank-selects \p within_ranks over the window's reply runs (left
  /// intact) into `out_.values`, timing it into `root.select_us`.
  Status SelectFromReplies(PendingWindow* w,
                           const std::vector<uint64_t>& within_ranks);
  /// Resets the scratch output for window \p w.
  sim::WindowOutput& StartOutput(const PendingWindow& w);
  /// Emission-time latency relative to \p close_us, clamped at 0; a clamp
  /// counts into `dema.clock_skew_windows` and flags the trace.
  DurationUs EmitLatencyUs(TimestampUs close_us, obs::WindowTrace* trace);
  /// Finalizes and records the window's trace span.
  void RecordTrace(PendingWindow* w);
  /// Per-local event counts of \p w's synopses into `local_sizes_`.
  void CountLocalSizes(const PendingWindow& w);
  /// Marks in `retains_` each local whose slices of \p w are `Retained`:
  /// only those keep the window for serving, so only those get a request or
  /// a release.
  void MarkRetaining(const PendingWindow& w);
  /// Groups \p w's candidate slices to fetch (those not known from their
  /// synopses) by local into `request_begin_` and `request_slices_`; local
  /// i's request is
  /// `request_slices_[request_begin_[i], request_begin_[i + 1])`.
  void GroupRequests(const PendingWindow& w);
  /// Fills `request_` with local \p i's grouped request for \p w.
  const CandidateRequest& RequestFor(const PendingWindow& w, size_t i);
  uint64_t NowStamp() const;
  /// Stamps a trace instant; only when a tracer records the spans.
  void StampTrace(uint64_t* field) const {
    if (tracer_ != nullptr) *field = NowStamp();
  }

  DemaRootNodeOptions options_;
  const Clock* clock_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  obs::TraceRecorder* tracer_;
  Status init_status_;
  /// (local id, local index) pairs sorted by id: the sender lookup.
  std::vector<std::pair<NodeId, size_t>> local_index_;
  /// Initial controller every new stream copies.
  AdaptiveGammaController initial_gamma_;
  /// Deadline clock (incremented per `BeginTick()`).
  uint64_t tick_ = 0;
  /// Finished windows whose buffers the next windows reuse.
  std::vector<std::unique_ptr<PendingWindow>> pool_;
  /// Run buffers of finished windows (reply and synopsis-served runs),
  /// reused by the next replies and synopsis-served runs.
  std::vector<std::vector<Event>> run_pool_;

  // Scratch buffers, reused by every call.
  SynopsisBatch synopsis_;
  CandidateReply reply_;
  CandidateRequest request_;
  WindowCutScratch cut_scratch_;
  std::vector<uint64_t> ranks_;
  std::vector<uint64_t> within_ranks_;
  std::vector<uint64_t> local_sizes_;
  std::vector<uint8_t> retains_;
  std::vector<uint64_t> local_candidates_;
  std::vector<size_t> request_begin_;
  std::vector<uint32_t> request_slices_;
  std::vector<SliceSynopsis> requested_;
  std::vector<Event> picked_;
  stream::RankSelectScratch select_scratch_;
  sim::WindowOutput out_;

  /// Cached registry instruments (stable pointers; hot-path increments).
  obs::Counter* c_windows_;
  obs::Counter* c_synopsis_slices_;
  obs::Counter* c_candidate_slices_;
  obs::Counter* c_candidate_events_;
  obs::Counter* c_gamma_updates_sent_;
  obs::Counter* c_duplicates_ignored_;
  obs::Counter* c_rejected_;
  /// The root's alone (null on a relay, which never reaches their uses).
  obs::Counter* c_global_events_ = nullptr;
  obs::Counter* c_synopsis_served_slices_ = nullptr;
  obs::Counter* c_class_separate_ = nullptr;
  obs::Counter* c_class_compound_ = nullptr;
  obs::Counter* c_class_cover_ = nullptr;
  obs::Counter* c_clock_skew_windows_ = nullptr;
  obs::Counter* c_degraded_windows_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_send_failures_ = nullptr;
  obs::Counter* c_quarantined_ = nullptr;
  obs::Counter* c_readmitted_ = nullptr;
  /// Calculation-step selection time (rank-select over the reply runs,
  /// wall-clock µs).
  obs::Histogram* h_select_us_ = nullptr;
};

}  // namespace dema::core
