#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/channel.h"
#include "net/message.h"
#include "net/traffic_instruments.h"
#include "obs/registry.h"
#include "transport/epoll_transport.h"
#include "transport/frame.h"
#include "transport/transport.h"

namespace dema::transport {

/// \brief Creates a bound, listening TCP socket on host:port (port 0 binds
/// an ephemeral port). Used directly by callers that must bind before
/// forking and hand the socket to a transport via `adopted_listen_fd`.
Result<int> BindListenSocket(const std::string& host, uint16_t port);

/// \brief Port a bound socket listens on (resolves ephemeral binds).
Result<uint16_t> ListenSocketPort(int fd);

/// \brief Session resilience of a TCP endpoint: heartbeats, dead-peer
/// detection, redial and acked replay. The default (interval 0, no
/// reconnect) leaves all of it off.
struct TcpSessionOptions {
  /// Idle-connection heartbeat period. Every interval without traffic the
  /// loop sends a `kHeartbeat` ping (the peer echoes a pong, feeding the
  /// per-peer RTT gauge `net.peer_rtt_us{peer=}`); `heartbeat_misses`
  /// intervals with *no* inbound bytes at all declare the peer dead
  /// (`net.peer_down`) and kill the connection — triggering redial for
  /// configured peers. 0 disables heartbeats and dead-peer detection.
  DurationUs heartbeat_interval_us = 0;
  /// Silent heartbeat intervals before a peer is declared dead.
  int heartbeat_misses = 3;
  /// Redial configured peers in the background when their connection dies
  /// outside shutdown, using the same jittered exponential backoff as the
  /// first dial, and replay in-flight frames on the fresh session.
  bool auto_reconnect = false;
};

/// \brief Fault injection of a `TcpTransport`; the default injects nothing.
struct TcpFaultOptions {
  /// Kill the connection carrying the Nth, then the Mth, ... *data* frame
  /// written by this transport (cumulative count of first writes across
  /// connections, sorted ascending). The kill severs a live socket exactly
  /// as a mid-window network failure would — counted in
  /// `net.conn_kills{layer=inject}` — and session resilience must recover.
  std::vector<uint64_t> kill_conn_schedule;
  /// After this many data frames written, pause all writes on the carrying
  /// connection for `write_stall_us` (backpressure builds, heartbeats still
  /// flow on other connections). 0 disables.
  uint64_t write_stall_after_frames = 0;
  /// Duration of the injected write stall.
  DurationUs write_stall_us = 0;
  /// Probability per outbound frame of flipping one random byte after the
  /// length-prefix header (payload or CRC trailer) before it hits the
  /// socket, exercising the receiver's checksum path end to end. Flips stay
  /// clear of the header so framing survives and the receiver drops the one
  /// corrupt frame instead of the connection. 0 disables.
  double corrupt_rate = 0;
  /// Seed for the corruption injector; 0 derives one from the pid.
  uint64_t corrupt_seed = 0;
};

/// \brief Configuration of a `TcpTransport`.
struct TcpTransportOptions {
  /// Interface to bind the listener to.
  std::string listen_host = "127.0.0.1";
  /// Listener port; 0 binds an ephemeral port (read it via `bound_port()`).
  uint16_t listen_port = 0;
  /// Whether `Start` opens a listener at all. Pure clients (edge nodes that
  /// only dial the root and receive replies over the same connection) set
  /// this to false and need no reachable address.
  bool listen = true;
  /// An already-bound, already-listening socket to adopt instead of binding
  /// a new one (used by the forked-cluster runner, which binds before
  /// forking so children can dial a known port race-free). -1 = bind.
  int adopted_listen_fd = -1;
  /// Capacity of hosted inboxes in messages; 0 = unbounded.
  size_t inbox_capacity = 0;
  /// Per-connection outbox bound in messages; 0 = unbounded. A full outbox
  /// means the peer is not keeping up: `Send` counts `net.outbox_full` and
  /// then blocks until space frees (`outbox_block`, the default — classic
  /// backpressure) or fails with `NetworkError` so the caller sees the stall
  /// (`outbox_block = false`). Either way memory stays bounded.
  size_t outbox_capacity = 1024;
  /// Whether `Send` blocks (true) or fails (false) on a full outbox.
  bool outbox_block = true;
  /// Connection attempts before a dial fails (the peer may start later).
  int connect_attempts = 30;
  /// First retry delay; doubles per attempt up to the cap below. The actual
  /// sleep is jittered uniformly in [delay/2, delay], drawn from a generator
  /// seeded by the pid, so a whole cluster (forked processes included)
  /// reconnecting to a restarted root does not thundering-herd it.
  DurationUs connect_backoff_initial_us = MillisUs(10);
  /// Retry delay cap.
  DurationUs connect_backoff_max_us = MillisUs(1000);
  /// Sequence-number epoch, occupying the top 8 bits of every stamped
  /// `Message::seq`. A restarted process must use a fresh epoch so its new
  /// 1-based stream does not collide with its previous life's numbers inside
  /// receivers' dedup windows.
  uint32_t seq_epoch = 0;
  /// Backoff before re-arming the listener after a hard accept error
  /// (EMFILE and friends): the listener leaves the epoll set for this long
  /// so a level-triggered ready listener cannot spin the loop.
  DurationUs accept_backoff_us = MillisUs(10);
  /// Testing hook: treat the first N accepted connections as hard accept
  /// failures (close them and run the error/backoff path) to prove the
  /// listener survives; 0 disables.
  int inject_accept_failures = 0;

  /// Heartbeats, dead-peer detection, redial and acked replay. Encoded
  /// frames stay in flight until acked, at most `outbox_capacity` per
  /// destination (0 = unbounded); at the bound the outbox backpressures
  /// `Send`.
  TcpSessionOptions session;
  /// Connection kills, write stalls and frame corruption (all off).
  TcpFaultOptions fault;
  /// Metrics sink for the `transport.sent.*` / `transport.recv.*`
  /// instruments. When null, the transport owns a private registry
  /// (reachable via `registry()`). Must outlive the transport when provided.
  obs::Registry* registry = nullptr;
};

/// \brief POSIX TCP implementation of `Transport` on a single epoll loop.
///
/// One instance per OS process. It hosts the inboxes of this process's nodes
/// (`AddLocalNode`), listens for inbound connections (`Start`), and dials
/// configured peers (`AddPeer`) lazily on first send, with bounded retry and
/// exponential backoff so processes may start in any order.
///
/// Wire format: every message travels as one `EncodeFrame` frame, so the
/// bytes written per message equal `Message::WireBytes()` — the measured
/// per-link counters (`LinkTraffic`) are directly comparable to the
/// in-process fabric's simulated accounting.
///
/// Connections are bidirectional. A dialer opens with a hello preamble
/// announcing its hosted node ids; the acceptor uses those to route replies
/// back over the same connection. In a star topology only the edge processes
/// therefore need the root's address, never the reverse.
///
/// Threads: ONE I/O thread multiplexing every connection and the listener
/// through an `EpollLoop` (non-blocking sockets, level-triggered). `Send`
/// enqueues to the destination connection's bounded outbox and wakes the
/// loop; the loop encodes queued frames and writes them with a single
/// `writev` per connection per pass, so many small frames (synopses, gamma
/// broadcasts, keyed envelopes) coalesce into one syscall. Received bytes
/// land in shared arena blocks and payloads are delivered as zero-copy views
/// into them (`Message::SetPayloadView`); only a partial frame straddling a
/// block boundary is ever copied. Node run loops are identical to the
/// simulation's.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options = TcpTransportOptions());
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Hosts node \p id on this transport (creates its inbox). Fails on
  /// duplicates. Call before `Start` so hello preambles announce the id.
  Status AddLocalNode(NodeId id);

  /// Registers the dial address for remote node \p id. The connection is
  /// established lazily on the first send to \p id.
  Status AddPeer(NodeId id, const std::string& host, uint16_t port);

  /// Starts the I/O loop and opens the listener (unless configured off).
  Status Start();

  /// Port the listener is bound to (useful with an ephemeral `listen_port`).
  uint16_t bound_port() const;

  Status Send(net::Message m) override;
  net::Channel* Inbox(NodeId id) override;

  /// Traffic sent by this process, per directed link, measured from the
  /// bytes actually written to sockets (loopback sends to hosted nodes are
  /// charged their `WireBytes` equivalent for cross-transport parity).
  LinkTrafficMap LinkTraffic() const override;
  std::map<net::MessageType, net::TrafficCounters> TrafficByType() const override;

  /// Traffic received from remote peers, per directed link, measured from
  /// bytes read off sockets. Event counts are reconstructed from the
  /// payloads of event-carrying message types.
  LinkTrafficMap ReceivedTraffic() const;

  /// Received traffic broken down by message type.
  std::map<net::MessageType, net::TrafficCounters> ReceivedByType() const;

  /// The registry this transport records into (the options-provided one, or
  /// the transport's own private registry).
  obs::Registry* registry() const { return registry_; }

  /// Blocks until every message sent so far to \p dsts (to any destination
  /// when empty) has been acknowledged by its receiver (their outboxes
  /// empty, nothing in flight) or \p timeout_us passes. The
  /// listener stays open meanwhile, so a peer whose connection was cut can
  /// redial and receive the rest on replay. Returns whether everything was
  /// acknowledged.
  bool AwaitAcked(DurationUs timeout_us, const std::vector<NodeId>& dsts = {});

  /// Flushes outbound queues (bounded by a per-connection grace period),
  /// closes the listener and every connection, joins the I/O thread, and
  /// closes hosted inboxes. Idempotent.
  void Shutdown() override;

  /// Kills the I/O loop as if its thread had crashed (test hook for the
  /// Send-must-not-hang-forever regression; the transport object survives
  /// but no further I/O happens until `Shutdown`).
  void StopLoopForTest();

 private:
  /// \brief One encoded data frame, from encode until the peer's cumulative
  /// ack. Its session holds it in `inflight`; write-queue entries point at
  /// it, so a first write, a replay and a retransmit all send these bytes.
  struct InflightFrame {
    std::vector<uint8_t> bytes;
    NodeId src = 0;
    NodeId dst = 0;
    net::MessageType type = net::MessageType::kShutdown;
    uint64_t event_count = 0;
    uint32_t seq = 0;
    /// Fully written once: charged to the sent-traffic instruments and
    /// counted by the chaos schedules. Any later send is a replay.
    bool written = false;
    /// Last send (first write, replay or retransmit): retransmit timer input.
    TimestampUs written_at_us = 0;
  };

  /// One live socket. The fd/dead fields are shared with `Send`; all other
  /// state belongs to the loop thread.
  struct Conn {
    int fd = -1;
    std::atomic<bool> dead{false};

    // --- loop-thread-only from here -----------------------------------------
    bool expect_hello = false;
    /// Destinations currently routed over this connection (each has a
    /// Session whose outbox the loop drains into this socket).
    std::vector<NodeId> dsts;
    /// Last instant any bytes arrived (heartbeat liveness input).
    TimestampUs last_recv_us = 0;
    /// Last instant a heartbeat ping left (rate-limits idle pings).
    TimestampUs last_ping_us = 0;
    /// A `kShutdown` frame passed through (either direction): a subsequent
    /// close is an orderly end-of-stream, not a peer failure.
    bool saw_shutdown = false;
    /// Chaos: writes are paused until this instant (0 = no stall).
    TimestampUs stall_until_us = 0;
    /// Set once the loop has the fd in its epoll set (frames queued before
    /// then wait in the outbox; the fd may still be blocking).
    bool registered = false;
    /// EPOLLOUT currently armed (a write hit EAGAIN).
    bool want_write = false;
    /// Shutdown drain finished for this conn (SHUT_WR sent or abandoned).
    bool flushed = false;

    /// Receive arena: the block being filled, the first unparsed byte, and
    /// the first unfilled byte. Blocks are shared with delivered messages
    /// (payload views), so parsed bytes are never overwritten — a full block
    /// is replaced, carrying at most one partial frame forward by copy.
    std::shared_ptr<std::vector<uint8_t>> rblock;
    size_t rpos = 0;
    size_t rend = 0;

    /// A frame waiting on the socket: a session's data frame record, or
    /// (record null) the bytes of a heartbeat or ack. A data frame the
    /// corruption injector hit carries its own flipped copy in `own`, so the
    /// record keeps the pristine encoding for any replay.
    struct Queued {
      std::shared_ptr<InflightFrame> frame;
      std::vector<uint8_t> own;
      const std::vector<uint8_t>& bytes() const {
        return own.empty() ? frame->bytes : own;
      }
    };
    std::deque<Queued> wq;
    /// Total encoded bytes queued in `wq` (high-water check).
    size_t wq_bytes = 0;
    /// Bytes of `wq.front()` already written (partial writev progress).
    size_t wq_head_off = 0;
    /// Shutdown drain: abandon this conn when no write progress happens
    /// before the deadline (reset on progress).
    TimestampUs drain_deadline_us = 0;
  };

  /// \brief Per-destination send state, decoupled from any one socket.
  ///
  /// Connections die; sessions survive them. A session owns the bounded
  /// outbox `Send` pushes into and every encoded frame not yet acked, written
  /// or not. A dead connection's write queue is simply dropped: the next
  /// connection replays the whole in-flight queue, where a frame's first
  /// completed write is its delivery and the receiver's dedup swallows any
  /// duplicate of one already delivered. The map entry is created under
  /// `mu_`; the queue is loop-thread-only.
  struct Session {
    NodeId dst = 0;
    /// Outbound queue; the loop drains it into the routed conn's frames.
    std::unique_ptr<net::Channel> outbox;
    /// True once a kShutdown to this destination entered the outbox: the
    /// stream is ending by design, so a subsequent connection close is
    /// orderly and must not trigger peer-down accounting or redial.
    std::atomic<bool> closing{false};
    /// A background redial for this destination is queued or in flight
    /// (loop thread sets, redial thread clears) — dedups kill cascades.
    std::atomic<bool> redial_pending{false};

    // --- loop-thread-only from here -----------------------------------------
    /// Encoded frames awaiting the peer's cumulative ack, in encode order.
    std::deque<std::shared_ptr<InflightFrame>> inflight;
  };

  /// \brief Per-(src, dst) receive stream: cumulative-ack and dedup state.
  ///
  /// `cum` is the highest contiguously received serial (RFC 1982 order
  /// within the epoch in its top byte); `ooo` holds serials received ahead
  /// of it. A frame at or below `cum` or in `ooo` is a retransmit duplicate:
  /// dropped before the inbox and excluded from recv accounting (parity),
  /// but re-acked so the sender stops replaying it.
  struct RecvStream {
    uint32_t cum = 0;
    bool seen_any = false;
    std::set<uint32_t> ooo;
    /// Stream progressed (or re-saw a duplicate) since the last ack flush.
    bool ack_dirty = false;
  };

  /// Stamps the next per-(src, dst) sequence number (epoch in the top 8
  /// bits, a 1-based 24-bit counter below) — the same keying the in-process
  /// fabric uses, so retained-frame replay of one stream never perturbs
  /// another stream's dedup window.
  uint32_t NextSeqFor(NodeId src, NodeId dst);
  /// Route to \p dst: an existing live connection, else a lazy dial of the
  /// configured peer address.
  Result<Conn*> ConnFor(NodeId dst);
  /// Connects to host:port with bounded retry + exponential backoff and
  /// writes the hello preamble. Returns the connected fd.
  Result<int> DialWithRetry(const std::string& host, uint16_t port);
  /// Wraps \p fd in a Conn and posts its registration to the loop (mu_
  /// held). \p dsts are the destinations this connection will carry (known
  /// for dialed conns; an acceptor learns them from the hello instead).
  Conn* AdoptLocked(int fd, bool expect_hello, std::vector<NodeId> dsts);
  /// Session for \p dst, created on first use (mu_ held).
  Session* SessionForLocked(NodeId dst);
  /// Starts the loop thread on first use (Start, or a pure client's first
  /// dial). Idempotent; safe from any thread.
  Status EnsureLoopStarted();
  /// Queues a background redial of configured peer \p dst (any thread).
  /// No-op while draining, when redial is off, or when one is in flight.
  void RequestRedial(NodeId dst);
  /// Background thread: dials queued peers with the usual backoff, adopts
  /// the fresh connection, and re-registers the route.
  void RedialThreadMain();

  // --- loop-thread handlers -------------------------------------------------
  void RegisterConn(Conn* conn);
  void OnAcceptReady();
  void OnAcceptError(int err);
  void OnConnEvent(Conn* conn, uint32_t events);
  void ReadReady(Conn* conn);
  /// Parses every complete frame in the read window; returns false when the
  /// conn was killed (protocol error).
  bool ParseFrames(Conn* conn);
  /// Handles a transport-control frame (heartbeat ping/pong, cumulative
  /// ack); never reaches an inbox.
  void HandleControlFrame(Conn* conn, const FrameHeader& h,
                          const uint8_t* payload);
  /// Dedup gate: true when (src, dst, seq) is a first delivery; duplicates
  /// are counted, re-acked, and dropped by the caller.
  bool AcceptSeq(NodeId src, NodeId dst, uint32_t seq);
  /// Sends one coalesced kAck frame covering every dirty stream this
  /// connection carries (called after each read pass that made progress).
  void FlushAcks(Conn* conn);
  /// Drops the frames a received cumulative ack covers from the in-flight
  /// queue of \p dst's session.
  void ApplyAck(NodeId src, NodeId dst, uint32_t cum_seq);
  /// Enqueues a control frame (heartbeat/ack) directly onto \p conn's write
  /// queue, bypassing outboxes, the in-flight queue, and traffic accounting.
  void QueueControlFrame(Conn* conn, net::Message m);
  /// Queues \p frame on \p conn: its first write, or a replay or retransmit
  /// of an already-written frame (counted in `net.replayed_frames`).
  /// \p flipped, when non-empty, is the corruption injector's damaged copy
  /// to put on the wire instead of the record's bytes.
  void QueueFrame(Conn* conn, std::shared_ptr<InflightFrame> frame,
                  std::vector<uint8_t> flipped = {});
  /// Heartbeat timer body: ping idle conns, declare silent peers dead,
  /// retransmit overdue unacked frames; reschedules itself.
  void HeartbeatTick();
  /// Queues \p session's whole in-flight queue onto \p conn after a route
  /// (re)bind, ahead of fresh outbox traffic.
  void ReplaySession(Session* session, Conn* conn);
  /// Makes room for at least \p hint more unread bytes, moving a partial
  /// frame into a fresh arena block when the current one is full.
  void EnsureReadCapacity(Conn* conn, size_t hint);
  /// Moves outbox messages into encoded pending frames (up to the in-flight
  /// high-water mark) and attempts a writev pass.
  void DrainOutboxes();
  void DrainConnOutbox(Conn* conn);
  void TryWrite(Conn* conn);
  void KillConn(Conn* conn);
  /// Shutdown (loop side): stop reading, flush every outbox, half-close.
  void BeginDrain();
  void CheckDrainDone();

  TcpTransportOptions options_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  /// Registry-backed per-link / per-type counters: bytes written to sockets
  /// (plus loopback `WireBytes` equivalents) and bytes read off sockets.
  net::TrafficInstruments sent_;
  net::TrafficInstruments recv_;
  std::atomic<bool> stopped_{false};

  EpollLoop loop_;
  std::thread loop_thread_;
  /// Loop-thread-only shutdown state.
  bool draining_ = false;
  int accept_failures_to_inject_ = 0;

  mutable std::mutex mu_;  // guards everything below
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  bool started_ = false;
  bool loop_started_ = false;
  std::map<NodeId, std::unique_ptr<net::Channel>> inboxes_;
  struct Peer {
    std::string host;
    uint16_t port;
  };
  std::map<NodeId, Peer> peers_;
  /// Live route per remote node: configured (dialed) or learned (hello).
  std::map<NodeId, Conn*> routes_;
  std::vector<std::unique_ptr<Conn>> conns_;
  /// Per-destination send sessions (entries created under mu_, owned here;
  /// the in-flight queues are loop-thread-only).
  std::map<NodeId, std::unique_ptr<Session>> sessions_;
  /// Per-(src, dst) sequence counters, keyed src << 32 | dst (guarded by
  /// mu_) — mirrors the in-process fabric's stamping.
  std::map<uint64_t, uint32_t> next_seq_;
  /// Per-(src, dst) receive streams, keyed src << 32 | dst
  /// (loop-thread-only).
  std::map<uint64_t, RecvStream> recv_streams_;

  /// Background redial machinery (guarded by redial_mu_).
  std::mutex redial_mu_;
  std::condition_variable redial_cv_;
  std::deque<NodeId> redial_queue_;
  bool redial_stop_ = false;
  bool redial_started_ = false;
  std::thread redial_thread_;

  /// Loop-thread-only chaos state: cumulative data frames fully written,
  /// and the next pending index into the sorted kill schedule.
  uint64_t data_frames_written_ = 0;
  size_t kill_schedule_idx_ = 0;
  bool write_stall_armed_ = false;
  /// Dial-backoff jitter draw (own mutex: dialing happens outside mu_).
  std::mutex jitter_mu_;
  Rng jitter_rng_;
  /// Corruption-injector draws (loop thread only; mutex kept for safety).
  std::mutex corrupt_mu_;
  Rng corrupt_rng_;
  /// Frames corrupted: injected on send (`layer=inject`) and detected +
  /// dropped on receive (`layer=tcp`).
  obs::Counter* c_corrupted_total_;
  obs::Counter* c_corrupted_inject_;
  obs::Counter* c_corrupted_recv_;
  /// Hard accept errors survived (satellite: the listener never dies).
  obs::Counter* c_accept_errors_;
  /// Sends that found their connection's outbox full (backpressure events).
  obs::Counter* c_outbox_full_;
  /// Peers declared dead (heartbeat silence or unexpected connection loss).
  obs::Counter* c_peer_down_;
  /// Successful background reconnects to configured peers.
  obs::Counter* c_reconnects_;
  /// Re-sends of already-written frames (session resume + retransmits).
  obs::Counter* c_replayed_;
  /// Duplicate frames the receive-side dedup swallowed.
  obs::Counter* c_dup_dropped_;
  /// Partial frames lost to a peer closing mid-frame (previously silent).
  obs::Counter* c_partial_frame_drops_;
  /// Heartbeat / ack control frames sent (parity-excluded traffic).
  obs::Counter* c_heartbeats_;
  obs::Counter* c_acks_;
  /// Connections severed by the chaos injector.
  obs::Counter* c_conn_kills_;
};

}  // namespace dema::transport
