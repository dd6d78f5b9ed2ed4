#include "sim/tcp_run.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dema/local_node.h"
#include "net/serializer.h"
#include "stream/window.h"

namespace dema::sim {

namespace {

// How long the root waits for its locals to acknowledge kShutdown. A local
// that was relaunched never does (it starts with no receive state, so the
// root's stream to it has a permanent gap), and its run pays this in full.
constexpr DurationUs kShutdownAckWaitUs = SecondsUs(2);

DurationUs ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

void AccumulateTraffic(const transport::LinkTrafficMap& links,
                       net::TrafficCounters* total) {
  for (const auto& [link, counters] : links) {
    (void)link;
    total->messages += counters.messages;
    total->bytes += counters.bytes;
    total->events += counters.events;
  }
}

void MergeByType(const std::map<net::MessageType, net::TrafficCounters>& in,
                 std::map<net::MessageType, net::TrafficCounters>* out) {
  for (const auto& [type, counters] : in) {
    net::TrafficCounters& slot = (*out)[type];
    slot.messages += counters.messages;
    slot.bytes += counters.bytes;
    slot.events += counters.events;
  }
}

/// Writes \p bytes to \p path via a temp file + rename, so a crash mid-write
/// never leaves a truncated checkpoint behind.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp + ": " + std::strerror(errno));
  }
  size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + ": " + std::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read error on " + path);
  return bytes;
}

net::Message ShutdownMessage(NodeId src, NodeId dst) {
  net::Message m;
  m.type = net::MessageType::kShutdown;
  m.src = src;
  m.dst = dst;
  return m;
}

/// Session-resilience counters a forked local reports to the parent, which
/// adds them into the run registry: injected severances, unclean peer
/// losses, successful redials, frames replayed onto resumed sessions, and
/// mid-frame bytes dropped by kills.
constexpr const char* kSessionCounters[] = {
    "net.conn_kills{layer=inject}", "net.peer_down", "net.reconnects",
    "net.replayed_frames", "net.partial_frame_drops"};

/// Runs local \p node on a registry of its own and writes its one-line
/// report to the forked-cluster pipe \p fd: `ok events=N` and each of
/// `kSessionCounters` as `name=value`, or `error <status>`. Returns whether
/// the local succeeded.
bool RunChildLocal(int fd, const SystemConfig& config,
                   const WorkloadConfig& workload, NodeId node,
                   const TcpLocalOptions& options) {
  obs::Registry registry;
  SystemConfig child_config = config;
  child_config.registry = &registry;
  auto report = RunTcpLocal(child_config, workload, node, options);
  if (!report.ok()) {
    ::dprintf(fd, "error %s\n", report.status().ToString().c_str());
    return false;
  }
  std::string line = "ok events=" + std::to_string(report->events_ingested);
  for (const char* name : kSessionCounters) {
    line += std::string(" ") + name + "=" +
            std::to_string(registry.CounterValue(name));
  }
  ::dprintf(fd, "%s\n", line.c_str());
  return true;
}

}  // namespace

Result<RunMetrics> RunTcpRoot(const SystemConfig& config,
                              uint64_t expected_windows,
                              const TcpRootOptions& options) {
  DEMA_RETURN_NOT_OK(ValidateSystemConfig(config));
  RealClock clock;
  SystemConfig cfg = config;
  RunMetrics metrics;
  BindRunObs(&cfg, &metrics);

  transport::TcpTransportOptions topts;
  topts.listen_host = options.listen_host;
  topts.listen_port = options.listen_port;
  topts.adopted_listen_fd = options.adopted_listen_fd;
  topts.inbox_capacity = options.root_inbox_capacity;
  topts.outbox_capacity = options.outbox_capacity;
  topts.heartbeat_interval_us = options.session.heartbeat_interval_us;
  topts.heartbeat_misses = options.session.heartbeat_misses;
  topts.auto_reconnect = options.session.auto_reconnect;
  topts.retransmit_timeout_us = options.session.retransmit_timeout_us;
  topts.registry = cfg.registry;
  transport::TcpTransport transport(topts);
  DEMA_RETURN_NOT_OK(transport.AddLocalNode(0));
  DEMA_RETURN_NOT_OK(transport.Start());
  if (options.on_listening) options.on_listening(transport.bound_port());

  DEMA_ASSIGN_OR_RETURN(auto root, BuildRootLogic(cfg, &transport, &clock));

  obs::Histogram* latency =
      cfg.registry->GetHistogram("root.window_latency_us");
  uint64_t windows_done = 0;  // only touched by this (the root's) thread
  root->SetResultCallback([&](const WindowOutput& out) {
    latency->Record(
        out.latency_us < 0 ? 0 : static_cast<uint64_t>(out.latency_us));
    ++windows_done;
    if (options.on_result) options.on_result(out);
  });

  auto wall_start = std::chrono::steady_clock::now();
  net::Channel* inbox = transport.Inbox(0);
  Status run_status = Status::OK();
  while (windows_done < expected_windows) {
    if (ElapsedUs(wall_start) > options.timeout_us) {
      run_status = Status::Internal(
          "tcp root timed out with " + std::to_string(windows_done) + "/" +
          std::to_string(expected_windows) + " windows emitted");
      break;
    }
    auto msg = inbox->PopFor(MillisUs(2));
    if (!msg) {
      // Idle beat: with deadlines configured the root retries stalled
      // windows (e.g. requests that died with a crashed local) and
      // eventually degrades them; a no-op otherwise.
      Status st = root->Tick();
      if (!st.ok()) {
        run_status = st;
        break;
      }
      continue;
    }
    if (msg->type == net::MessageType::kShutdown) continue;
    Status st = root->OnMessage(*msg);
    if (!st.ok()) {
      run_status = st;
      break;
    }
  }
  auto wall_end = std::chrono::steady_clock::now();

  // Release the locals. Best effort: a local that never connected (or
  // already died) simply has no route.
  for (NodeId id : LocalIds(config)) {
    Status st = transport.Send(ShutdownMessage(0, id));
    (void)st;
  }
  // End of stream is a protocol step: keep the listener open until every
  // local has acknowledged its kShutdown. A local whose connection was cut
  // around the broadcast redials and gets it on replay; closing at once
  // would leave it redialing a dead port until its own timeout. Bounded,
  // because a local that died never acknowledges.
  (void)transport.AwaitAcked(kShutdownAckWaitUs);
  // Flushes the shutdown broadcasts and settles all traffic counters.
  transport.Shutdown();
  DEMA_RETURN_NOT_OK(run_status);

  metrics.windows_emitted = windows_done;
  metrics.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  // Every link of the star topology terminates at the root, so received
  // (local->root) plus sent (root->local) socket bytes cover the cluster.
  AccumulateTraffic(transport.ReceivedTraffic(), &metrics.network_total);
  AccumulateTraffic(transport.LinkTraffic(), &metrics.network_total);
  MergeByType(transport.ReceivedByType(), &metrics.by_type);
  MergeByType(transport.TrafficByType(), &metrics.by_type);
  return metrics;
}

Result<TcpLocalReport> RunTcpLocal(const SystemConfig& config,
                                   const WorkloadConfig& workload, NodeId id,
                                   const TcpLocalOptions& options) {
  DEMA_RETURN_NOT_OK(ValidateSystemConfig(config));
  if (id == 0 || id > workload.generators.size()) {
    return Status::InvalidArgument("no generator for local node " +
                                   std::to_string(id));
  }
  RealClock clock;

  transport::TcpTransportOptions topts;
  topts.listen = false;  // pure client: replies arrive over the dialed conn
  topts.registry = config.registry;
  topts.seq_epoch = options.seq_epoch;
  topts.outbox_capacity = options.outbox_capacity;
  topts.heartbeat_interval_us = options.session.heartbeat_interval_us;
  topts.heartbeat_misses = options.session.heartbeat_misses;
  topts.auto_reconnect = options.session.auto_reconnect;
  topts.retransmit_timeout_us = options.session.retransmit_timeout_us;
  topts.kill_conn_schedule = options.kill_conn_frames;
  topts.write_stall_after_frames = options.write_stall_after_frames;
  topts.write_stall_us = options.write_stall_us;
  topts.corrupt_rate = options.corrupt_rate;
  topts.corrupt_seed = options.corrupt_seed;
  transport::TcpTransport transport(topts);
  DEMA_RETURN_NOT_OK(transport.AddLocalNode(id));
  DEMA_RETURN_NOT_OK(transport.AddPeer(0, options.root_host, options.root_port));
  DEMA_RETURN_NOT_OK(transport.Start());

  // Process-local worker pool for this node's closed-window sort+slice
  // (declared before the logic so it outlives the node at teardown).
  std::unique_ptr<exec::Executor> executor;
  SystemConfig local_config = config;
  if (config.executor == nullptr && config.workers > 0) {
    exec::ExecutorOptions exec_opts;
    exec_opts.workers = config.workers;
    exec_opts.registry = config.registry;
    executor = std::make_unique<exec::Executor>(exec_opts);
    local_config.executor = executor.get();
  }
  DEMA_ASSIGN_OR_RETURN(auto logic,
                        BuildLocalLogic(local_config, id, &transport, &clock));
  DEMA_ASSIGN_OR_RETURN(auto gen,
                        gen::StreamGenerator::Create(workload.generators[id - 1]));

  const bool uses_faults = !options.checkpoint_path.empty() ||
                           !options.restore_path.empty() ||
                           options.crash_at_window > 0;
  auto* dema_local = dynamic_cast<core::DemaLocalNode*>(logic.get());
  if (uses_faults && dema_local == nullptr) {
    return Status::InvalidArgument(
        "checkpoint/restore/crash options require the Dema protocol");
  }

  // Relaunch path: replace the blank node state with the checkpoint snapshot,
  // re-learn the slice factor from the root, and fast-forward the (fully
  // deterministic) generator past everything the previous life ingested.
  TimestampUs resume_cutoff_us = 0;
  if (!options.restore_path.empty()) {
    DEMA_ASSIGN_OR_RETURN(auto bytes, ReadFileBytes(options.restore_path));
    net::Reader reader(bytes);
    uint64_t cutoff_raw = 0;
    DEMA_RETURN_NOT_OK(reader.GetU64(&cutoff_raw));
    resume_cutoff_us = static_cast<TimestampUs>(cutoff_raw);
    DEMA_RETURN_NOT_OK(dema_local->Restore(&reader));
    DEMA_RETURN_NOT_OK(dema_local->ResyncGamma());
    while (gen->next_time_us() < resume_cutoff_us) (void)gen->Next();
  }

  net::Channel* inbox = transport.Inbox(id);
  stream::TumblingWindowAssigner assigner(workload.window_len_us);
  const TimestampUs end_time =
      static_cast<TimestampUs>(workload.num_windows) * workload.window_len_us;
  auto wall_start = std::chrono::steady_clock::now();
  bool shutdown_received = false;

  // No pump runs here, so a threaded local quiesces right after each
  // watermark: each window still ships at its boundary, as inline.
  auto advance = [&](TimestampUs watermark_us) -> Status {
    DEMA_RETURN_NOT_OK(logic->OnWatermark(watermark_us));
    return logic->Quiesce();
  };
  auto handle = [&](const net::Message& msg) -> Status {
    if (msg.type == net::MessageType::kShutdown) {
      shutdown_received = true;
      return Status::OK();
    }
    return logic->OnMessage(msg);
  };

  TcpLocalReport report;
  uint64_t count = 0;
  net::WindowId last_window = 0;
  Status run_status = Status::OK();
  while (gen->next_time_us() < end_time && !shutdown_received) {
    Event e = gen->Next();
    net::WindowId wid = assigner.AssignWindow(e.timestamp);
    if (wid != last_window) {
      run_status = advance(e.timestamp);
      if (!run_status.ok()) break;
      last_window = wid;
      if (!options.checkpoint_path.empty()) {
        // Snapshot at the boundary, before any event of window `wid` is
        // ingested. The cutoff is the window start: a restored life skips
        // every regenerated event before it and re-feeds `e`, which the
        // restored watermark (== e.timestamp) accepts as on-time. `advance`
        // already landed every executor close, so none races the snapshot.
        net::Writer w;
        w.PutU64(static_cast<uint64_t>(wid) * workload.window_len_us);
        dema_local->Checkpoint(&w);
        run_status = WriteFileAtomic(options.checkpoint_path, w.buffer());
        if (!run_status.ok()) break;
      }
      if (options.crash_at_window > 0 && wid >= options.crash_at_window) {
        // Simulated hard crash: synopses already handed to the transport may
        // or may not reach the root (Shutdown flushes what it can); the
        // in-memory node state is simply gone.
        transport.Shutdown();
        ::_exit(kTcpCrashExitCode);
      }
    }
    run_status = logic->OnEvent(e);
    if (!run_status.ok()) break;
    ++count;
    if (count % options.watermark_every == 0) {
      run_status = advance(e.timestamp);
      if (!run_status.ok()) break;
      while (auto msg = inbox->TryPop()) {
        run_status = handle(*msg);
        if (!run_status.ok()) break;
      }
      if (!run_status.ok()) break;
    }
  }
  // A restored life reports its lifetime total (the checkpoint carries the
  // previous life's count), so the cluster-wide sum stays comparable to a
  // fault-free run.
  report.events_ingested = (dema_local != nullptr && !options.restore_path.empty())
                               ? dema_local->events_ingested()
                               : count;
  if (run_status.ok() && !shutdown_received) {
    run_status = logic->OnFinish(end_time);
  }
  // Serve candidate requests until the root is satisfied and releases us.
  while (run_status.ok() && !shutdown_received) {
    if (ElapsedUs(wall_start) > options.timeout_us) {
      run_status = Status::Internal("tcp local " + std::to_string(id) +
                                    " timed out waiting for shutdown");
      break;
    }
    auto msg = inbox->PopFor(MillisUs(2));
    if (!msg) continue;
    run_status = handle(*msg);
  }
  transport.Shutdown();
  // An error after the shutdown marker is teardown noise, not a failure.
  if (!run_status.ok() && !shutdown_received) return run_status;

  report.sent_links = transport.LinkTraffic();
  report.sent_by_type = transport.TrafficByType();
  return report;
}

Result<RunMetrics> RunTcpClusterForked(const SystemConfig& config,
                                       const WorkloadConfig& workload,
                                       const std::string& host, uint16_t port) {
  return RunTcpClusterForked(config, workload, TcpClusterFaultOptions{}, host,
                             port);
}

Result<RunMetrics> RunTcpClusterForked(const SystemConfig& config,
                                       const WorkloadConfig& workload,
                                       const TcpClusterFaultOptions& fault,
                                       const std::string& host, uint16_t port) {
  DEMA_RETURN_NOT_OK(ValidateSystemConfig(config));
  if (workload.generators.size() != config.num_locals) {
    return Status::InvalidArgument("generator count != local node count");
  }
  if (fault.crash_node > 0) {
    if (fault.crash_node > config.num_locals) {
      return Status::InvalidArgument("crash_node is not a local node");
    }
    if (fault.crash_at_window == 0 || fault.checkpoint_dir.empty()) {
      return Status::InvalidArgument(
          "a crash needs crash_at_window > 0 and a checkpoint_dir");
    }
    if (config.recovery.deadline_ticks == 0) {
      return Status::InvalidArgument(
          "crash recovery needs recovery.deadline_ticks > 0: the root must "
          "retry candidate requests that died with the crashed process");
    }
  }
  if ((!fault.conn_kill.empty() || fault.corrupt_rate > 0) &&
      fault.session.heartbeat_interval_us <= 0) {
    return Status::InvalidArgument(
        "connection chaos needs session.heartbeat_interval_us > 0: lost "
        "frames are recovered by the ack/retransmit machinery, which rides "
        "the heartbeat tick");
  }
  if (!fault.conn_kill.empty() && !fault.session.auto_reconnect) {
    return Status::InvalidArgument(
        "conn_kill chaos needs session.auto_reconnect: a severed local has "
        "no other way back to the root");
  }

  // Bind before forking: children dial a port guaranteed to be accepting,
  // and forking precedes any thread creation (fork + threads don't mix).
  DEMA_ASSIGN_OR_RETURN(int listen_fd, transport::BindListenSocket(host, port));
  DEMA_ASSIGN_OR_RETURN(uint16_t actual_port,
                        transport::ListenSocketPort(listen_fd));

  struct Child {
    pid_t pid = -1;
    int report_fd = -1;
  };
  std::vector<Child> children;
  for (size_t i = 0; i < config.num_locals; ++i) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      ::close(listen_fd);
      for (const Child& c : children) {
        ::close(c.report_fd);
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, nullptr, 0);
      }
      return Status::NetworkError(std::string("pipe failed: ") +
                                  std::strerror(errno));
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(listen_fd);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      for (const Child& c : children) {
        ::close(c.report_fd);
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, nullptr, 0);
      }
      return Status::NetworkError(std::string("fork failed: ") +
                                  std::strerror(errno));
    }
    if (pid == 0) {
      // Child: run one local node and report back over the pipe.
      ::close(listen_fd);
      ::close(pipe_fds[0]);
      const NodeId node = static_cast<NodeId>(i + 1);
      if (node == fault.crash_node) {
        // Victim child: a still-single-threaded supervisor forks generation 1
        // (which checkpoints every boundary and `_exit`s at the scheduled
        // window), reaps it, then relaunches generation 2 in this process
        // from the checkpoint with a fresh sequence epoch.
        std::string ckpt =
            fault.checkpoint_dir + "/node" + std::to_string(node) + ".ckpt";
        pid_t gen1 = ::fork();
        if (gen1 < 0) {
          ::dprintf(pipe_fds[1], "error victim fork failed: %s\n",
                    std::strerror(errno));
          ::close(pipe_fds[1]);
          ::_exit(1);
        }
        if (gen1 == 0) {
          ::close(pipe_fds[1]);
          TcpLocalOptions lopts;
          lopts.root_host = host;
          lopts.root_port = actual_port;
          lopts.checkpoint_path = ckpt;
          lopts.crash_at_window = fault.crash_at_window;
          auto report = RunTcpLocal(config, workload, node, lopts);
          // Reaching here means the crash never fired (e.g. the schedule was
          // past the last window) — that is a test-setup failure.
          (void)report;
          ::_exit(1);
        }
        int wstatus = 0;
        ::waitpid(gen1, &wstatus, 0);
        if (!(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == kTcpCrashExitCode)) {
          ::dprintf(pipe_fds[1],
                    "error victim generation 1 exited %d instead of crashing "
                    "on schedule\n",
                    WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
          ::close(pipe_fds[1]);
          ::_exit(1);
        }
        TcpLocalOptions lopts;
        lopts.root_host = host;
        lopts.root_port = actual_port;
        lopts.restore_path = ckpt;
        lopts.seq_epoch = 1;
        lopts.session = fault.session;
        // Reports the lifetime total: the checkpoint carried generation 1's
        // count.
        const bool ok = RunChildLocal(pipe_fds[1], config, workload, node,
                                      lopts);
        ::close(pipe_fds[1]);
        ::_exit(ok ? 0 : 1);
      }
      TcpLocalOptions lopts;
      lopts.root_host = host;
      lopts.root_port = actual_port;
      lopts.session = fault.session;
      if (!fault.conn_kill.empty()) {
        // Salt by node id: each local severs its link at different points
        // in its own frame stream, so kills do not land in lockstep.
        lopts.kill_conn_frames = BuildKillSchedule(fault.conn_kill, node);
      }
      if (fault.corrupt_rate > 0) {
        lopts.corrupt_rate = fault.corrupt_rate;
        lopts.corrupt_seed =
            (fault.corrupt_seed == 0 ? 0x5EEDu : fault.corrupt_seed) + node;
      }
      lopts.write_stall_after_frames = fault.write_stall_after_frames;
      lopts.write_stall_us = fault.write_stall_us;
      const bool ok = RunChildLocal(pipe_fds[1], config, workload, node, lopts);
      ::close(pipe_fds[1]);
      ::_exit(ok ? 0 : 1);
    }
    ::close(pipe_fds[1]);
    children.push_back(Child{pid, pipe_fds[0]});
  }

  TcpRootOptions ropts;
  ropts.adopted_listen_fd = listen_fd;
  ropts.session = fault.session;
  ropts.on_result = fault.on_result;
  auto metrics = RunTcpRoot(config, workload.ExpectedWindows(), ropts);

  // Collect every child regardless of the root's outcome. The children's
  // session counters are added into the run registry, where the root's own
  // already live, so the cluster totals are read from one place.
  std::map<std::string, uint64_t> totals;
  Status child_status = Status::OK();
  for (const Child& c : children) {
    std::string text;
    char buf[256];
    ssize_t n;
    while ((n = ::read(c.report_fd, buf, sizeof(buf))) > 0) {
      text.append(buf, static_cast<size_t>(n));
    }
    ::close(c.report_fd);
    int wstatus = 0;
    ::waitpid(c.pid, &wstatus, 0);
    std::istringstream line(text);
    std::string word;
    if (line >> word && word == "ok") {
      while (line >> word) {
        const size_t eq = word.rfind('=');
        totals[word.substr(0, eq)] += std::stoull(word.substr(eq + 1));
      }
    } else if (child_status.ok()) {
      child_status = Status::Internal(
          "local node process failed: " +
          (text.empty() ? std::string("no report (killed?)") : text));
    }
  }
  DEMA_RETURN_NOT_OK(child_status);
  DEMA_RETURN_NOT_OK(metrics.status());
  for (const char* name : kSessionCounters) {
    metrics->registry->GetCounter(name)->Increment(totals[name]);
  }

  metrics->events_ingested = totals["events"];
  metrics->throughput_eps =
      metrics->wall_seconds > 0
          ? static_cast<double>(metrics->events_ingested) /
                metrics->wall_seconds
          : 0;
  return std::move(metrics).MoveValueUnsafe();
}

Result<TcpConnChaosReport> RunTcpConnChaos(const SystemConfig& config,
                                           const WorkloadConfig& workload,
                                           const TcpClusterFaultOptions& fault,
                                           const std::string& host,
                                           uint16_t port) {
  if (fault.conn_kill.empty() && fault.corrupt_rate <= 0) {
    return Status::InvalidArgument(
        "conn-chaos run without connection faults: set conn_kill and/or "
        "corrupt_rate");
  }
  TcpConnChaosReport report;

  // --- faulted run: real processes, real sockets, scheduled severances ---
  TcpClusterFaultOptions f = fault;
  f.on_result = [&](const WindowOutput& out) {
    report.outputs.push_back(out);
    if (fault.on_result) fault.on_result(out);
  };
  DEMA_ASSIGN_OR_RETURN(report.metrics,
                        RunTcpClusterForked(config, workload, f, host, port));
  const obs::Registry& registry = *report.metrics.registry;

  // --- reference run: the deterministic in-process fabric, fault-free ---
  // Runs after the forked run on purpose: forking must precede thread
  // creation, and the reference run spins up worker threads.
  RealClock clock;
  SystemConfig ref_config = config;
  obs::Registry ref_registry;
  obs::TraceRecorder ref_tracer;
  ref_config.registry = &ref_registry;
  ref_config.tracer = &ref_tracer;
  net::Network network(&clock);
  DEMA_ASSIGN_OR_RETURN(auto system,
                        BuildSystem(ref_config, &network, &clock));
  SyncDriver driver(&system, &network);
  DEMA_RETURN_NOT_OK(driver.Run(workload));
  report.reference = driver.outputs();

  // --- the contract ---
  auto violate = [&](const std::string& why) {
    if (report.violation.empty()) report.violation = why;
  };
  const uint64_t conn_kills =
      registry.CounterValue("net.conn_kills{layer=inject}");
  if (!fault.conn_kill.empty() && conn_kills == 0) {
    violate("conn-kill schedule never fired: the run proved nothing");
  }
  if (conn_kills > 0 && registry.CounterValue("net.replayed_frames") == 0) {
    violate("connections were severed but no frame was ever replayed");
  }
  if (report.outputs.size() != report.reference.size()) {
    violate("faulted run emitted " + std::to_string(report.outputs.size()) +
            " windows, reference " +
            std::to_string(report.reference.size()));
  }
  // Match windows by id, not emission order: an injected stall or severance
  // can delay one window's candidates past the next window's completion, so
  // the faulted root may emit out of order — that reordering is fine; the
  // *values* must still be exact.
  auto by_window = [](const WindowOutput& a, const WindowOutput& b) {
    return a.window_id < b.window_id;
  };
  std::sort(report.outputs.begin(), report.outputs.end(), by_window);
  std::sort(report.reference.begin(), report.reference.end(), by_window);
  size_t common = std::min(report.outputs.size(), report.reference.size());
  for (size_t i = 0; i < common; ++i) {
    const WindowOutput& got = report.outputs[i];
    const WindowOutput& want = report.reference[i];
    if (got.degraded) {
      ++report.degraded_windows;
      violate("window " + std::to_string(got.window_id) +
              " degraded (" + got.degrade_cause +
              ") despite session resilience");
      continue;
    }
    if (got.window_id != want.window_id || got.values != want.values ||
        got.global_size != want.global_size) {
      ++report.mismatched_windows;
      violate("window " + std::to_string(got.window_id) +
              " diverged from the fault-free reference");
    }
  }
  return report;
}

}  // namespace dema::sim
