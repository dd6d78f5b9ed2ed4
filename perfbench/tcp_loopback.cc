// tcp_loopback: the star_inline configuration with two locals, run through
// the product's TCP runners (`sim::RunTcpRoot`, `sim::RunTcpLocal`) over
// loopback sockets with session resilience on. Every iteration starts a
// root thread and two local threads; the results are compared window by
// window against an in-process run of the same seed.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "bench.h"
#include "obs/registry.h"
#include "sim/tcp_run.h"
#include "star.h"

namespace dema::perfbench {

namespace {

constexpr size_t kTcpLocals = 2;

/// What one cluster run produced and measured.
struct TcpIteration {
  std::vector<sim::WindowOutput> outputs;
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;
  double listen_s = 0;
  double root_wall_s = 0;
  std::vector<double> local_wall_s;
  uint64_t events = 0;
  uint64_t wire_bytes = 0;
  Instruments instruments;
};

/// Session resilience as in perf_regress's `tcp_resilient` mode (heartbeats,
/// acks and frame retention, automatic reconnect), but with 100 ms
/// heartbeats instead of 5 ms. With 5 ms, a 15 ms scheduling stall on a
/// loaded 4-vCPU box reads as a dead peer; the root's next send to that
/// local then fails with "no route" before the local redials, about once
/// in 1500 cluster runs.
sim::TcpSessionTuning ResilientSession() {
  sim::TcpSessionTuning session;
  session.heartbeat_interval_us = MillisUs(100);
  session.auto_reconnect = true;
  return session;
}

/// Span logs of the three benchmark threads.
struct TcpLogs {
  SpanLog* main;
  SpanLog* root;
  std::vector<SpanLog*> locals;
};

Status RunTcpOnce(const sim::SystemConfig& base,
                  const sim::WorkloadConfig& workload, const TcpLogs& logs,
                  TcpIteration* it) {
  obs::Registry registry;
  sim::SystemConfig config = base;
  config.registry = &registry;
  std::vector<obs::Counter*> ingested;
  for (NodeId id : sim::LocalIds(config)) {
    ingested.push_back(registry.GetCounter("local.events_ingested{node=" +
                                           std::to_string(id) + "}"));
  }
  const sim::TcpSessionTuning session = ResilientSession();
  constexpr DurationUs kTimeoutUs = 30 * kMicrosPerSecond;

  std::mutex mu;
  std::condition_variable cv;
  uint16_t port = 0;
  bool root_done = false;
  int64_t listen_ns = 0;
  int64_t last_result_ns = 0;
  Result<sim::RunMetrics> root_result = Status::Internal("root never ran");

  const int64_t begin = NowNs();
  const int32_t setup_span = logs.main->Begin("bench.setup");
  std::thread root([&] {
    const int64_t start = NowNs();
    {
      ScopedSpan span(logs.root, "tcp.root");
      int32_t listen_span = logs.root->Begin("tcp.listen");
      sim::TcpRootOptions opts;
      opts.session = session;
      opts.timeout_us = kTimeoutUs;
      opts.on_listening = [&](uint16_t p) {
        logs.root->End(listen_span);
        std::lock_guard<std::mutex> lock(mu);
        port = p;
        listen_ns = NowNs();
        cv.notify_all();
      };
      opts.on_result = [&](const sim::WindowOutput& out) {
        it->outputs.push_back(out);
        last_result_ns = NowNs();
      };
      root_result = sim::RunTcpRoot(config, workload.ExpectedWindows(), opts);
    }
    it->root_wall_s = SecondsSince(start);
    std::lock_guard<std::mutex> lock(mu);
    root_done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return port != 0 || root_done; });
  }
  if (port == 0) {
    root.join();
    logs.main->End(setup_span);
    return root_result.ok() ? Status::Internal("root never listened")
                            : root_result.status();
  }
  it->listen_s = static_cast<double>(listen_ns - begin) / 1e9;

  std::vector<Result<sim::TcpLocalReport>> reports(
      kTcpLocals, Status::Internal("local never ran"));
  it->local_wall_s.assign(kTcpLocals, 0);
  std::vector<std::thread> locals;
  for (size_t i = 0; i < kTcpLocals; ++i) {
    locals.emplace_back([&, i] {
      const int64_t start = NowNs();
      {
        ScopedSpan span(logs.locals[i], "tcp.local");
        sim::TcpLocalOptions opts;
        opts.root_port = port;
        opts.session = session;
        opts.timeout_us = kTimeoutUs;
        reports[i] = sim::RunTcpLocal(config, workload,
                                      static_cast<NodeId>(i + 1), opts);
      }
      it->local_wall_s[i] = SecondsSince(start);
    });
  }
  // Set-up ends when every local has ingested its first event. The wait
  // yields instead of sleeping: on a VM whose host is busy, a sleeping
  // thread's timer can fire milliseconds late, and set-up time would then
  // measure that.
  auto all_started = [&] {
    return std::all_of(ingested.begin(), ingested.end(),
                       [](const obs::Counter* c) { return c->Value() > 0; });
  };
  while (!all_started()) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (root_done) break;
    }
    std::this_thread::yield();
  }
  const int64_t setup_end = NowNs();
  logs.main->End(setup_span);
  {
    ScopedSpan span(logs.main, "bench.run");
    root.join();
    for (auto& t : locals) t.join();
  }

  DEMA_RETURN_NOT_OK(root_result.status());
  for (auto& report : reports) {
    DEMA_RETURN_NOT_OK(report.status());
    it->events += report->events_ingested;
  }
  it->setup_s = static_cast<double>(setup_end - begin) / 1e9;
  it->run_s = static_cast<double>(last_result_ns - setup_end) / 1e9;
  it->wall_s = SecondsSince(begin);
  it->wire_bytes = root_result->network_total.bytes;
  it->instruments = ReadInstruments(registry, root_result->by_type);
  return Status::OK();
}

}  // namespace

Status RunTcpLoopback(const Options& options, Report* report) {
  const sim::SystemConfig config = StarConfig(kTcpLocals);
  DEMA_ASSIGN_OR_RETURN(
      StarInput input,
      PregenerateStar(kTcpLocals, kStarWindows, options.seed, config.quantiles));
  report->SetLayer("gen.events_per_s",
                   static_cast<double>(input.gen_events) / input.gen_seconds);

  // The in-process reference run of the same seed must match the exact
  // oracle; the TCP runs are then compared with its windows.
  SpanLog off(/*tid=*/0);
  StarIteration reference;
  DEMA_RETURN_NOT_OK(RunStarOnce(config, input, 0, &off, &reference));
  {
    Report check;
    CheckOutputs(reference.outputs, input.window_sizes, input.oracle,
                 "in-process reference", &check);
    if (!check.first_error.empty()) {
      return Status::Internal("tcp_loopback: " + check.first_error);
    }
  }
  std::vector<uint64_t> ref_sizes(kStarWindows);
  std::vector<std::vector<double>> ref_values(kStarWindows);
  for (const sim::WindowOutput& out : reference.outputs) {
    ref_sizes[out.window_id] = out.global_size;
    ref_values[out.window_id] = out.values;
  }
  input.events.clear();  // the TCP locals generate their own events

  TcpLogs logs{report->AddSpanLog(1), report->AddSpanLog(2),
               {report->AddSpanLog(3), report->AddSpanLog(4)}};
  auto set_enabled = [&](bool on) {
    logs.main->set_enabled(on);
    logs.root->set_enabled(on);
    for (SpanLog* log : logs.locals) log->set_enabled(on);
  };

  std::vector<double> listen_s, root_wall_s, local_wall_s;
  LayerTotals totals;

  // At least one block of windows from the untraced iterations that are
  // kept (the faster half).
  const uint64_t min_iterations =
      2 * (kBlockWindows / kStarWindows + 1) * (options.trace ? 2 : 1);
  const int64_t start = NowNs();
  for (uint64_t iteration = 0;
       iteration < min_iterations || SecondsSince(start) < options.seconds;
       ++iteration) {
    const bool traced = options.trace && iteration % 2 == 1;
    set_enabled(traced);
    TcpIteration it;
    DEMA_RETURN_NOT_OK(RunTcpOnce(config, input.workload, logs, &it));
    {
      ScopedSpan span(logs.main, "bench.verify");
      CheckOutputs(it.outputs, ref_sizes, ref_values, "tcp_loopback", report);
    }
    if (!traced) {
      report->setup_s.push_back(it.setup_s);
      report->wire_bytes += it.wire_bytes;
      report->AddIteration(it.events, it.run_s, Latencies(it.outputs));
      continue;
    }
    report->traced_events_per_s.push_back(static_cast<double>(it.events) /
                                          it.run_s);
    totals.Add(it.instruments, it.wall_s, kStarWindows, it.events);
    listen_s.push_back(it.listen_s);
    root_wall_s.push_back(it.root_wall_s);
    local_wall_s.insert(local_wall_s.end(), it.local_wall_s.begin(),
                        it.local_wall_s.end());
  }
  if (!options.trace) return Status::OK();

  auto per_window_counter = [&](const char* name) {
    return totals.PerWindow(
        static_cast<double>(SumCounter(totals.sum.counters, name)));
  };
  report->SetLayer("transport.acks", per_window_counter("net.acks"));
  report->SetLayer("transport.heartbeats", per_window_counter("net.heartbeats"));
  report->SetLayer("transport.outbox_full", per_window_counter("net.outbox_full"));
  report->SetLayer("transport.replayed_frames",
                   per_window_counter("net.replayed_frames"));
  report->SetLayer("tcp.listen_s", Median(listen_s));
  report->SetLayer("tcp.root_wall_s", Median(root_wall_s));
  report->SetLayer("tcp.local_wall_s", Median(local_wall_s));
  AddInstrumentLayers(totals, /*keyed=*/false, report);
  report->SetLayer("trace.uncovered_share",
                   1.0 - logs.root->TopLevelUs() / (totals.wall_s * 1e6));
  return Status::OK();
}

}  // namespace dema::perfbench
