#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "gen/generator.h"
#include "sim/chaos.h"
#include "sim/driver.h"
#include "sim/metrics.h"
#include "sim/topology.h"
#include "transport/tcp.h"

namespace dema::core {
class DemaLocalNode;
}  // namespace dema::core

namespace dema::sim {

/// \brief The former name of `transport::TcpSessionOptions`, kept for
/// existing callers.
using TcpSessionTuning = transport::TcpSessionOptions;

/// \brief Options for a TCP root process / thread (flat or sharded).
struct TcpRootOptions {
  /// Listener address (ignored when adopting a pre-bound socket).
  std::string listen_host = "127.0.0.1";
  /// Listener port; 0 binds ephemeral (observable via `on_listening`).
  uint16_t listen_port = 0;
  /// Pre-bound, already-listening socket to adopt; -1 = bind fresh. The
  /// forked cluster runner binds before forking so children dial a port
  /// that is guaranteed to be accepting.
  int adopted_listen_fd = -1;
  /// Abort when the run has not completed within this wall time.
  DurationUs timeout_us = 120 * kMicrosPerSecond;
  /// Per-connection outbox bound in messages (0 = unbounded); a full outbox
  /// blocks `Send` until the peer catches up (`demactl --outbox-cap`).
  size_t outbox_capacity = 1024;
  /// Heartbeat / reconnect / replay settings of the root's transport.
  transport::TcpSessionOptions session;
  /// After every window completed, keep serving (the sharded root answers
  /// queries) for up to this long before releasing the locals; a
  /// `kShutdown` frame from a node that is not a local ends the linger
  /// early. 0 = release immediately.
  DurationUs linger_us = 0;
  /// Invoked with the bound port once the listener is up (threaded tests
  /// bind port 0 and hand the result to the locals).
  std::function<void(uint16_t)> on_listening;
  /// Invoked with every emitted window result, in emission order (tests
  /// compare the values against an in-process run of the same workload).
  /// The sharded root calls it with every per-key window, from its shard
  /// strands, so there it must be thread-safe.
  std::function<void(const WindowOutput&)> on_result;
};

/// \brief Exit code of a TCP local process that crashed on schedule
/// (`TcpLocalOptions::crash_at_window`). The supervisor distinguishes it
/// from real failures before relaunching.
inline constexpr int kTcpCrashExitCode = 61;

/// \brief Options for a TCP local-node process / thread.
struct TcpLocalOptions {
  /// Root address to dial.
  std::string root_host = "127.0.0.1";
  uint16_t root_port = 0;
  /// Abort when the root's shutdown has not arrived within this wall time
  /// of the start.
  DurationUs timeout_us = 120 * kMicrosPerSecond;
  /// When non-empty (flat Dema only): write a checkpoint snapshot of the
  /// node state to this path at every window boundary (atomic rename).
  std::string checkpoint_path;
  /// When non-empty (flat Dema only): restore the node from this checkpoint
  /// before streaming, re-sync γ with the root, and skip regenerated events
  /// the previous life already ingested.
  std::string restore_path;
  /// When > 0 (flat Dema only): simulate a process crash at the boundary of
  /// this window id — flush the transport (synopses already queued still
  /// reach the root) and `_exit(kTcpCrashExitCode)` without any cleanup.
  net::WindowId crash_at_window = 0;
  /// Sequence-number epoch for the transport; a relaunched process must use
  /// a fresh epoch so the root's dedup window does not swallow its stream.
  uint32_t seq_epoch = 0;
  /// Per-connection outbox bound in messages (0 = unbounded).
  size_t outbox_capacity = 1024;
  /// Heartbeat / reconnect / replay settings of this local's transport.
  transport::TcpSessionOptions session;
  /// Chaos: connection kills, write stalls and frame corruption of this
  /// local's transport. Kills need `session.auto_reconnect` to recover.
  transport::TcpFaultOptions fault;
};

/// \brief What a local node measured during a TCP run.
struct TcpLocalReport {
  uint64_t events_ingested = 0;
  /// Bytes/messages/events actually written to the socket, per link.
  transport::LinkTrafficMap sent_links;
};

/// \brief Runs the root role over TCP: hosts node 0, accepts local
/// connections, aggregates until \p expected_windows results are emitted,
/// then broadcasts `kShutdown` to every local and returns the metrics.
///
/// `RunMetrics::network_total` covers the whole star topology because all
/// traffic passes the root: received bytes (local->root) plus sent bytes
/// (root->local), both measured on the socket. `events_ingested` stays 0
/// here — locals count ingestion; the cluster runner merges their reports.
Result<RunMetrics> RunTcpRoot(const SystemConfig& config,
                              uint64_t expected_windows,
                              const TcpRootOptions& options);

/// \brief Builds a root's logic over the transport the root listens on.
using RootLogicBuilder =
    std::function<Result<std::unique_ptr<RootNodeLogic>>(transport::Transport*)>;

/// \brief The TCP root run of `RunTcpRoot` and `shard::RunShardedTcpRoot`:
/// listens as node 0 (recording into `metrics->registry`, which must be
/// set), builds the logic with \p build, then pops the inbox for up to 2 ms
/// at a time, ticking the root when idle, until it emitted
/// \p expected_windows and lingered, or a node outside \p locals sent
/// `kShutdown`. It then quiesces the root, releases \p locals with an acked
/// `kShutdown`, and fills \p metrics' windows, wall time and traffic.
Status ServeTcpRoot(const TcpRootOptions& options,
                    const std::vector<NodeId>& locals,
                    uint64_t expected_windows, const RootLogicBuilder& build,
                    RunMetrics* metrics);

/// \brief Runs one local node over TCP: dials the root, streams the
/// generated workload through the node logic, serves candidate requests,
/// and returns after the root's `kShutdown` arrives.
Result<TcpLocalReport> RunTcpLocal(const SystemConfig& config,
                                   const WorkloadConfig& workload, NodeId id,
                                   const TcpLocalOptions& options);

/// \brief Starts the transport of node \p id, which dials the root (node 0)
/// per \p options, listens nowhere and records into \p registry (a private
/// one when null). Flat and keyed locals and the query client use it.
Result<std::unique_ptr<transport::TcpTransport>> DialRoot(
    NodeId id, const TcpLocalOptions& options, obs::Registry* registry);

/// \brief \p logic as the flat Dema local it is, or null; InvalidArgument
/// when \p options asks for a checkpoint, a restore or a crash of any
/// other node logic, which cannot snapshot itself.
Result<core::DemaLocalNode*> CheckpointableLocal(const TcpLocalOptions& options,
                                                 NodeLogic* logic);

/// \brief The root-facing inbox of a TCP local, shared by the flat and
/// keyed runners: every message goes to the node logic except the root's
/// `kShutdown`, which releases the local.
class LocalInbox {
 public:
  /// \p timeout_us bounds the whole run from now.
  LocalInbox(transport::TcpTransport* transport, NodeId id, NodeLogic* logic,
             DurationUs timeout_us);

  /// Whether the root's `kShutdown` arrived.
  bool released() const { return released_; }

  /// Hands every message already waiting to the logic.
  Status Drain();

  /// Ends the run: unless \p run_status failed, serves the root's requests
  /// until it releases the local (or the timeout passes), then shuts the
  /// transport down and reports \p events_ingested with the traffic sent.
  /// An error after the release is teardown noise, not a failure.
  Result<TcpLocalReport> Finish(Status run_status, uint64_t events_ingested);

 private:
  Status Handle(const net::Message& msg);

  transport::TcpTransport* transport_;
  NodeId id_;
  NodeLogic* logic_;
  net::Channel* inbox_;
  std::chrono::steady_clock::time_point deadline_;
  bool released_ = false;
};

/// \brief Fault injection for `RunTcpClusterForked`: kill one local process
/// mid-run and relaunch it from its checkpoint, or cut, stall and corrupt
/// every local's connection.
struct TcpClusterFaultOptions {
  /// Local node to crash (0 = no crash).
  NodeId crash_node = 0;
  /// Window boundary at which the victim `_exit`s.
  net::WindowId crash_at_window = 0;
  /// Directory for the victim's checkpoint file (must exist).
  std::string checkpoint_dir;
  /// Connection-level chaos: every local severs its root link on this plan
  /// (salted by node id so kills do not land in lockstep). Requires
  /// `session.heartbeat_interval_us` > 0 and `session.auto_reconnect`.
  ConnChaosPlan conn_kill;
  /// Per-local frame corruption rate; receiver CRC drops the frame and the
  /// ack/retransmit machinery must recover it (unlike crash recovery this
  /// needs no root deadline — the frame is replayed, not regenerated).
  double corrupt_rate = 0;
  uint64_t corrupt_seed = 0;
  /// Chaos: every local stalls its socket writes once, for `write_stall_us`,
  /// after this many data frames (0 disables). A stall longer than the
  /// dead-peer budget escalates into a kill + redial; a shorter one just
  /// builds backpressure.
  uint64_t write_stall_after_frames = 0;
  DurationUs write_stall_us = 0;
  /// Session settings applied to the root and every local.
  transport::TcpSessionOptions session;
  /// Invoked in this (the root's) process with every emitted window result.
  std::function<void(const WindowOutput&)> on_result;
};

/// \brief Runs a whole cluster on this machine as real OS processes: binds
/// the root listener, forks one child per local node (each running
/// `RunTcpLocal` against loopback), runs the root in this process, and
/// merges the children's reports into the returned metrics: their ingest
/// count into `events_ingested`, their session counters into the run
/// registry (the caller's `SystemConfig::registry` when set).
///
/// With `fault.crash_node` set, the victim's child is a single-threaded
/// supervisor that forks generation 1 (checkpointing, crashes at the
/// scheduled window), reaps it, and relaunches generation 2 from the
/// checkpoint with a fresh sequence epoch. The root needs
/// `recovery.deadline_ticks` > 0 to retry candidate requests that died with
/// generation 1.
///
/// Must be called before this process creates any threads (it forks).
Result<RunMetrics> RunTcpClusterForked(const SystemConfig& config,
                                       const WorkloadConfig& workload,
                                       const TcpClusterFaultOptions& fault,
                                       const std::string& host = "127.0.0.1",
                                       uint16_t port = 0);

/// \brief Outcome of a connection-chaos parity run (`RunTcpConnChaos`).
struct TcpConnChaosReport {
  /// Metrics of the faulted forked run; `metrics.registry` holds the
  /// cluster-wide session counters (`net.conn_kills{layer=inject}`,
  /// `net.peer_down`, `net.reconnects`, `net.replayed_frames`,
  /// `net.partial_frame_drops`) of the root and every local.
  RunMetrics metrics;
  /// Window results of the faulted run, in emission order.
  std::vector<WindowOutput> outputs;
  /// Reference results from a fault-free in-process run of the same workload.
  std::vector<WindowOutput> reference;
  uint64_t degraded_windows = 0;
  uint64_t mismatched_windows = 0;
  /// First contract violation; empty when the run held the invariant:
  /// the scheduled faults actually fired AND every window emitted exact,
  /// non-degraded, byte-identical results versus the fault-free reference.
  std::string violation;

  bool Invariant() const { return violation.empty(); }
};

/// \brief Runs the forked TCP cluster under connection-level chaos
/// (`fault.conn_kill`, `fault.corrupt_rate`) with session resilience on,
/// then replays the same workload through the deterministic in-process
/// fabric and demands *exact* quantile parity: severed sockets, replayed
/// frames, and CRC-dropped frames must be invisible in the results.
///
/// Must be called before this process creates any threads (it forks). The
/// reference run executes after the forked run completes.
Result<TcpConnChaosReport> RunTcpConnChaos(const SystemConfig& config,
                                           const WorkloadConfig& workload,
                                           const TcpClusterFaultOptions& fault,
                                           const std::string& host = "127.0.0.1",
                                           uint16_t port = 0);

}  // namespace dema::sim
