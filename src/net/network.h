#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/rng.h"
#include "net/channel.h"
#include "net/message.h"
#include "net/traffic_instruments.h"
#include "obs/registry.h"
#include "sim/tick/tick_queue.h"
#include "sim/tick/topology.h"
#include "transport/transport.h"

namespace dema::net {

/// \brief In-process network fabric connecting simulated nodes.
///
/// Each registered node owns an inbox `Channel`; `Send` delivers a framed
/// message to the destination inbox and charges the (src, dst) link metrics:
/// message count, wire bytes, carried raw events, and modelled transfer time.
/// These per-link counters are what the network-cost experiments (Fig. 6)
/// report.
///
/// The fabric is the in-process implementation of `transport::Transport`;
/// `TcpTransport` is the sockets one. Node logic sees only the interface.
class Network : public transport::Transport {
 public:
  /// How `Send` moves a message to its destination inbox.
  enum class DeliveryMode {
    /// Function-call delivery: `Send` pushes the inbox inline (the delay
    /// injector's multimap is the only buffering). The default.
    kInline,
    /// Discrete-event delivery: `Send` enqueues a hop event on the central
    /// tick queue at `now + link.HopTimeUs(bytes)`; nothing reaches an
    /// inbox until the driver calls `AdvanceEvents`. With a routed
    /// `Options::topology` every message traverses its multi-hop path, one
    /// event per link. Fault injectors keep their exact RNG draw order, so
    /// seeded fault schedules replay identically in either mode; they act as
    /// event transforms here (drop/corrupt suppress the event, duplicate
    /// enqueues a second one, delay shifts the due time, and partition /
    /// node-down / unknown-destination are re-checked at delivery time).
    /// Single-threaded drivers only.
    kEvent,
  };

  struct Options {
    /// Model of every direct link: its exact transfer time is accumulated
    /// as the simulated wire time a deployment would spend (reporting
    /// only — the paper excludes network transfer time from latency,
    /// "dominated by the network setup"); its whole-microsecond hop time
    /// paces event-driven delivery without a routed `topology`. Defaults
    /// to 25 Gbit/s, as in the paper's cluster, and 50 us per message.
    tick::LinkSpec link_model;
    /// Fault injection: probability that a sent message is delivered twice
    /// (models at-least-once transports that retransmit). Duplicates are
    /// charged to the link metrics like any other transfer, and additionally
    /// tagged in the `net.duplicates.*` per-link counters so parity checks
    /// can subtract injected traffic.
    double duplicate_prob = 0;
    /// Fault injection: probability that a sent message is silently lost in
    /// transit (the sender still sees success). Lost messages are charged to
    /// the wire (they travelled) and counted in `net.dropped{cause=loss}`.
    double drop_prob = 0;
    /// Fault injection: upper bound on the extra in-flight delay of a
    /// message, in virtual microseconds (0 disables delaying). A delayed
    /// message is held back and redelivered once the fabric's virtual clock
    /// passes its due time — later sends on *any* link can overtake it, which
    /// is how the fabric models reordering. `FlushDelayed` releases all
    /// held messages at quiescence.
    DurationUs delay_us_max = 0;
    /// Probability that a message is delayed when `delay_us_max` > 0.
    double delay_prob = 1.0;
    /// Fault injection: probability that a sent message's frame suffers a
    /// random byte flip in transit. The fabric plays receiver: it computes
    /// the real CRC32C a sender would have framed, applies the flip, and
    /// re-verifies — a mismatch (always, for single-byte flips) drops the
    /// frame exactly as the TCP reader would, counted in
    /// `net.corrupted{layer=frame}` and `net.dropped{cause=corrupt}`. The
    /// checksum is exercised, not assumed.
    double corrupt_prob = 0;
    /// Fault injection: probability that a message from a node marked via
    /// `SetNodeTamper` has a protocol field tampered *with a valid CRC*
    /// (models a buggy or malicious local, not a noisy wire): the declared
    /// node id inside kSynopsisBatch / kCandidateReply payloads is flipped,
    /// so only the root's validation pass can catch it. Counted in
    /// `net.corrupted{layer=payload}`.
    double tamper_prob = 1.0;
    /// Seed for the fault-injection draw (deterministic runs).
    uint64_t fault_seed = 1;
    /// Metrics sink for the `transport.sent.*` instruments. When null, the
    /// fabric owns a private registry (reachable via `registry()`). Must
    /// outlive the network when provided.
    obs::Registry* registry = nullptr;
    /// Delivery mode (see `DeliveryMode`).
    DeliveryMode delivery = DeliveryMode::kInline;
    /// Routed multi-hop topology for event-driven delivery; null = a single
    /// direct hop per message (the flat `link_model`). Ignored in inline
    /// mode. Endpoint ids must cover every registered node id.
    std::shared_ptr<const tick::Topology> topology;
  };

  /// Creates a fabric with default options; \p clock stamps send times (must
  /// outlive the network).
  explicit Network(const Clock* clock);

  /// Creates a fabric with explicit options.
  Network(const Clock* clock, Options options);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node and creates its (unbounded) inbox. Fails on duplicate
  /// ids.
  Status RegisterNode(NodeId id);

  /// Decommissions a node: closes and destroys its inbox (any `Inbox(id)`
  /// pointer becomes dangling). In-flight messages to it — delayed or
  /// event-queued — are dropped as `net.dropped{cause=unknown_dest}` when
  /// they come due. Fails when the id was never registered.
  Status UnregisterNode(NodeId id);

  /// The inbox of \p id, or nullptr when unknown. The pointer stays valid for
  /// the lifetime of the network.
  Channel* Inbox(NodeId id) override;

  /// Delivers \p m to `m.dst`'s inbox and charges the (src, dst) link. Fails when the destination is unknown or
  /// its inbox is closed. Stamps a per-(src, dst) sequence number into
  /// `m.seq` before delivery. Faults (loss, partition, down nodes) drop the
  /// message *silently* — the sender still sees OK, exactly like a lost
  /// datagram — and are tallied in the `net.dropped` counters.
  Status Send(Message m) override;

  // --- fault injection -------------------------------------------------------

  /// Blocks the directed link \p src -> \p dst: messages sent on it are
  /// silently dropped (`net.dropped{cause=partition}`) until `Heal`. Block
  /// both directions for a full partition.
  void Partition(NodeId src, NodeId dst);

  /// Unblocks the directed link \p src -> \p dst.
  void Heal(NodeId src, NodeId dst);

  /// Marks a node crashed (true) or recovered (false): while down, every
  /// message to or from it is silently dropped
  /// (`net.dropped{cause=node_down}`). The node's inbox survives, so a
  /// restarted logic can reuse it.
  void SetNodeDown(NodeId id, bool down);

  /// Marks node \p id as tampering (true) or honest again (false): while
  /// tampering, each of its protocol payloads is field-tampered with
  /// probability `tamper_prob` and delivered with a *valid* checksum — the
  /// corruption only the root's validation layer can catch.
  void SetNodeTamper(NodeId id, bool tampering);

  /// Messages corrupted by injection so far (frame flips + field tampers):
  /// the `net.corrupted` counter.
  uint64_t messages_corrupted() const { return c_corrupted_->Value(); }

  /// Delivers every held-back (delayed) message in due order, regardless of
  /// the virtual clock; returns how many were delivered. Drivers call this at
  /// quiescence so a delayed message can never be lost, only reordered.
  uint64_t FlushDelayed();

  // --- event-driven delivery -------------------------------------------------

  /// The configured delivery mode.
  DeliveryMode delivery_mode() const { return options_.delivery; }

  /// Hop events queued but not yet processed (event mode; 0 in inline mode).
  size_t pending_events() const;

  /// Event mode: advances the virtual clock to the earliest due event and
  /// processes *every* event due at that instant — one tick. Intermediate
  /// hops re-enqueue the message on its next link; final hops re-check the
  /// partition / node-down / destination state (faults act at delivery time)
  /// and push the inbox. Returns the number of hop events processed, 0 when
  /// the queue is idle. Counted in `sim.ticks` / `sim.events`, with per-tier
  /// hop latencies in `sim.hop_latency_us{tier=...}`.
  uint64_t AdvanceEvents();

  /// Current virtual fabric time in microseconds.
  uint64_t virtual_now_us() const;

  /// High-water mark of the event queue (event mode).
  uint64_t event_queue_peak() const;

  /// Messages silently dropped by fault injection so far (all causes): the
  /// `net.dropped` counter.
  uint64_t messages_dropped() const { return c_dropped_->Value(); }

  /// Messages that were held back for delayed redelivery so far: the
  /// `net.delayed` counter.
  uint64_t messages_delayed() const { return c_delayed_->Value(); }

  /// Held-back messages not yet redelivered.
  size_t delayed_in_flight() const;

  /// Cumulative per-link traffic totals.
  struct LinkStats {
    TrafficCounters counters;
    /// Sum of modelled wire times of all messages on this link.
    double simulated_transfer_us = 0;
  };

  /// Traffic on the directed link src -> dst (zeroes when never used).
  LinkStats GetLinkStats(NodeId src, NodeId dst) const;

  /// Every directed link that carried traffic, keyed by (src, dst).
  std::map<std::pair<NodeId, NodeId>, LinkStats> AllLinks() const;

  /// Sum of traffic over all links.
  LinkStats TotalStats() const;

  /// Traffic broken down by message type, summed over all links.
  std::map<MessageType, TrafficCounters> StatsByType() const;

  /// Per-link traffic counters (`Transport` interface view of `AllLinks`).
  transport::LinkTrafficMap LinkTraffic() const override;

  /// `Transport` interface alias of `StatsByType`.
  std::map<MessageType, TrafficCounters> TrafficByType() const override {
    return StatsByType();
  }

  /// Closes every inbox (consumers drain, producers fail).
  void CloseAll();

  /// `Transport` interface alias of `CloseAll`.
  void Shutdown() override { CloseAll(); }

  /// Registered node ids, in registration order.
  std::vector<NodeId> nodes() const;

  /// The link model in use.
  const tick::LinkSpec& link_model() const { return options_.link_model; }

  /// The registry this fabric records into (the options-provided one, or the
  /// fabric's own private registry).
  obs::Registry* registry() const { return registry_; }

 private:
  // Keyed by the (src, dst) pair directly: the previous packed-u64 key
  // ((src << 32) | dst) would silently collide links if NodeId ever widened
  // beyond 32 bits. A pair is collision-free for any NodeId width.
  using LinkKey = std::pair<NodeId, NodeId>;
  static LinkKey MakeKey(NodeId src, NodeId dst) { return {src, dst}; }

  /// Charges \p m to the (src, dst) link and per-type counters (mu_ held).
  void ChargeLocked(const Message& m);

  /// A held-back message awaiting redelivery.
  struct Delayed {
    uint64_t due_virtual_us = 0;
    Message msg;
  };

  /// Counts a fault-dropped message (mu_ held). \p cause is a short label
  /// ("loss", "partition", "node_down", "corrupt").
  void CountDropLocked(const char* cause);

  /// Flips one random byte of \p m's would-be frame and replays the
  /// receiver's CRC check (mu_ held). Returns true when the flip was caught
  /// — the caller drops the message; false (flip landed undetectably, which
  /// CRC32C rules out for single-byte flips, or mutated only padding) keeps
  /// the possibly-mutated message in flight.
  bool CorruptFrameLocked(Message* m);

  /// Applies the tampering-node field tamper to \p m when eligible (mu_
  /// held): flips the declared node id inside protocol payloads, leaving the
  /// checksum valid.
  void MaybeTamperLocked(Message* m);

  /// Pops every delayed message with due time <= \p horizon (mu_ held),
  /// returning (inbox, message) pairs in due order; messages whose link went
  /// down while they were in flight are dropped instead.
  std::vector<std::pair<Channel*, Message>> CollectDueLocked(uint64_t horizon);

  /// One in-flight message traversing its (possibly multi-hop) route in
  /// event-driven mode. `path[next_hop]` is the link currently being
  /// crossed; an empty path is the flat single-hop case.
  struct HopEvent {
    Message msg;
    std::vector<uint32_t> path;
    uint32_t next_hop = 0;
    /// Virtual time the current hop started (for per-hop latency).
    uint64_t hop_start_us = 0;
  };

  /// Schedules \p m's first hop \p extra_delay_us past now (mu_ held).
  void EnqueueEventLocked(Message m, uint64_t extra_delay_us);

  /// Per-tier hop latency histogram, created on first use (mu_ held).
  obs::Histogram* HopHistogramLocked(tick::LinkTier tier);

  const Clock* clock_;
  Options options_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  /// Registry-backed per-link / per-type message, byte, and event counters.
  TrafficInstruments sent_;
  /// Injected-duplicate traffic only (`net.duplicates.*`), so parity checks
  /// can subtract it from the `transport.sent.*` totals.
  TrafficInstruments dup_sent_;
  obs::Counter* c_dropped_;
  obs::Counter* c_delayed_;
  obs::Counter* c_corrupted_;
  obs::Counter* c_corrupted_frame_;
  obs::Counter* c_corrupted_payload_;
  obs::Counter* c_sim_ticks_;
  obs::Counter* c_sim_events_;
  mutable std::mutex mu_;
  std::map<NodeId, std::unique_ptr<Channel>> inboxes_;
  std::vector<NodeId> order_;
  /// Modelled wire time per link (reporting only; not a registry metric).
  std::map<LinkKey, double> transfer_us_;
  Rng fault_rng_{1};
  /// Per-(src, dst) next sequence number (1-based).
  std::map<LinkKey, uint32_t> next_seq_;
  /// Directed links currently partitioned.
  std::set<LinkKey> partitions_;
  /// Nodes currently crashed.
  std::set<NodeId> down_;
  /// Nodes currently emitting field-tampered (valid-CRC) payloads.
  std::set<NodeId> tampering_;
  /// Virtual in-flight clock. Inline mode: advances by the link model's base
  /// latency per send, so delayed redelivery is deterministic and wall-clock
  /// free. Event mode: advances to each tick's due time.
  uint64_t virtual_now_us_ = 0;
  /// Held-back messages keyed by due time (stable FIFO among equal keys).
  /// Inline mode only; event mode folds delays into the event queue.
  std::multimap<uint64_t, Message> delayed_;
  /// Central virtual-time event queue (event-driven mode).
  tick::TickQueue<HopEvent> events_;
  /// Lazily-created `sim.hop_latency_us{tier=...}` histograms by tier.
  std::array<obs::Histogram*, tick::kNumLinkTiers> hop_latency_ = {};

 public:
  /// Number of duplicate deliveries injected so far, read from the
  /// `net.duplicates.messages{type=...}` counters.
  uint64_t duplicates_injected() const;
};

}  // namespace dema::net
