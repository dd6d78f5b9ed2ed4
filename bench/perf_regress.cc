// Perf-regression harness: one pinned workload, run in-process (inline) and
// over the epoll TCP transport on loopback sockets, with the numbers CI
// tracks written to BENCH_dema.json. No pass/fail thresholds here — CI
// compares the recorded events/s fields against the committed baseline
// (>20% regression fails the perf-smoke job) and uploads the artifact for
// humans to diff across commits.
//
//   perf_regress [--locals=4] [--windows=8] [--rate=50000] [--gamma=2000]
//                [--workers=2] [--out=BENCH_dema.json]
//
// Reported per mode: ingest events/s (wall and simulated-parallel), root
// rank-selection time (root.select_us: total + p99), p99 window latency,
// peak retained events across local nodes (candidate-buffer memory bound),
// and wire bytes touched per ingested event (socket bytes on the TCP mode).
//
// A second, keyed section runs the multi-tenant sharded service across key
// counts 1 / 1k / 100k with a fixed total event budget (--keyed-events,
// split evenly across keys) on --workers shard threads, and reports ingest
// events/s and wire bytes-per-window — the per-tenant batching overhead CI
// tracks.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/json.h"
#include "harness.h"
#include "shard/sim_run.h"
#include "sim/scenario.h"
#include "sim/tcp_run.h"

using namespace dema;

namespace {

struct ModeResult {
  std::string mode;
  sim::RunMetrics metrics;
  uint64_t select_us_total = 0;
  uint64_t select_count = 0;
  double select_us_p99 = 0;
  int64_t peak_retained_events = 0;

  /// p99 of the run's `root.window_latency_us`, in microseconds.
  double WindowLatencyP99() const {
    return metrics.registry->HistogramSummary("root.window_latency_us").p99;
  }

  /// Wire bytes the run moved per ingested event (protocol overhead per
  /// datum; on the TCP mode these are bytes actually written to sockets).
  double BytesPerEvent() const {
    return metrics.events_ingested > 0
               ? static_cast<double>(metrics.network_total.bytes) /
                     static_cast<double>(metrics.events_ingested)
               : 0;
  }
};

ModeResult RunInline(const sim::SystemConfig& config,
                     const sim::WorkloadConfig& load) {
  ModeResult result;
  result.mode = "inline";
  result.metrics = bench::Unwrap(sim::RunSync(config, load), "inline");

  const obs::Registry& registry = *result.metrics.registry;
  if (const obs::Histogram* h = registry.FindHistogram("root.select_us")) {
    auto s = h->Summarize();
    result.select_us_total = s.sum;
    result.select_count = s.count;
    result.select_us_p99 = s.p99;
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (name.rfind("local.retained_events_peak{", 0) == 0) {
      result.peak_retained_events = std::max(result.peak_retained_events, value);
    }
  }
  return result;
}

std::string ModeJson(const ModeResult& r) {
  JsonWriter w;
  w.Field("events", r.metrics.events_ingested)
      .Field("windows", r.metrics.windows_emitted)
      .Field("throughput_eps", r.metrics.throughput_eps)
      .Field("sim_throughput_eps", r.metrics.sim_throughput_eps)
      .Field("bottleneck", r.metrics.bottleneck)
      .Field("root_select_us_total", r.select_us_total)
      .Field("root_select_count", r.select_count)
      .Field("root_select_us_p99", r.select_us_p99)
      .Field("window_latency_us_p99", r.WindowLatencyP99())
      .Field("peak_retained_events", r.peak_retained_events)
      .Field("bytes_per_event", r.BytesPerEvent());
  return w.Finish();
}

/// The same pinned workload over the epoll TCP transport: a root thread plus
/// one thread per local, loopback sockets, zero-copy receive path. Measures
/// the transport end to end — framing, writev coalescing, CRC verify, arena
/// decode — with `network_total` counted from bytes actually on the sockets.
/// With \p session tuning enabled the run additionally carries the whole
/// resilience layer (heartbeat pings/pongs, cumulative acks, the per-session
/// retention window) so CI can gate its overhead against the bare transport.
ModeResult RunTcpMode(const std::string& mode, const sim::SystemConfig& base,
                      const sim::WorkloadConfig& load,
                      const transport::TcpSessionOptions& session =
                          transport::TcpSessionOptions()) {
  sim::SystemConfig config = base;
  ModeResult result;
  result.mode = mode;

  uint16_t port = 0;
  std::mutex port_mu;
  std::condition_variable port_cv;
  Result<sim::RunMetrics> root_metrics = Status::Internal("root never ran");
  std::thread root_thread([&] {
    sim::TcpRootOptions opts;
    opts.listen_port = 0;
    opts.session = session;
    opts.on_listening = [&](uint16_t p) {
      std::lock_guard<std::mutex> lock(port_mu);
      port = p;
      port_cv.notify_all();
    };
    root_metrics = sim::RunTcpRoot(config, load.ExpectedWindows(), opts);
  });
  {
    std::unique_lock<std::mutex> lock(port_mu);
    port_cv.wait(lock, [&] { return port != 0; });
  }

  std::vector<Result<sim::TcpLocalReport>> reports(
      config.num_locals, Status::Internal("local never ran"));
  std::vector<std::thread> locals;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < config.num_locals; ++i) {
    locals.emplace_back([&, i] {
      sim::TcpLocalOptions opts;
      opts.root_port = port;
      opts.session = session;
      reports[i] =
          sim::RunTcpLocal(config, load, static_cast<NodeId>(i + 1), opts);
    });
  }
  root_thread.join();
  for (auto& t : locals) t.join();
  double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  result.metrics = bench::Unwrap(std::move(root_metrics), "tcp root");
  for (size_t i = 0; i < config.num_locals; ++i) {
    auto report = bench::Unwrap(std::move(reports[i]), "tcp local");
    result.metrics.events_ingested += report.events_ingested;
  }
  result.metrics.throughput_eps =
      wall_s > 0
          ? static_cast<double>(result.metrics.events_ingested) / wall_s
          : 0;
  return result;
}

struct KeyedResult {
  uint64_t keys = 0;
  uint64_t events = 0;
  uint64_t windows = 0;
  double throughput_eps = 0;
  uint64_t wire_bytes = 0;
  double bytes_per_window = 0;
};

KeyedResult RunKeyed(uint64_t keys, uint64_t shards, size_t workers,
                     uint64_t events_budget, uint64_t gamma) {
  shard::ShardedConfig sc;
  sc.num_locals = 2;
  sc.num_shards = static_cast<uint32_t>(std::min<uint64_t>(shards, keys));
  sc.num_keys = keys;
  sc.workers = workers;
  sc.quantiles = {0.5, 0.99};
  sc.gamma = gamma;

  shard::KeyedWorkloadConfig load;
  load.num_windows = 1;
  // Fixed total event budget, split across every (key, local) stream, so the
  // three key counts compare per-tenant overhead at equal ingest volume.
  load.event_rate = std::max(
      1.0, static_cast<double>(events_budget) /
               static_cast<double>(keys * sc.num_locals));
  load.distribution = bench::SensorDistribution();
  load.seed_base = 7000;

  shard::ShardedSimHarness harness(sc);
  bench::UnwrapStatus(harness.init_status(), "keyed harness");
  auto start = std::chrono::steady_clock::now();
  bench::UnwrapStatus(harness.Run(load), "keyed run");
  double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  KeyedResult result;
  result.keys = keys;
  result.events = harness.events_ingested();
  result.windows = harness.service()->windows_emitted();
  result.throughput_eps =
      wall_s > 0 ? static_cast<double>(result.events) / wall_s : 0;
  result.wire_bytes = harness.network()->TotalStats().counters.bytes;
  result.bytes_per_window =
      result.windows > 0
          ? static_cast<double>(result.wire_bytes) / result.windows
          : 0;
  return result;
}

/// The discrete-event simulator at scale: 1000 locals over a routed
/// fat-tree, one deterministic event-driven run. CI gates the simulator's
/// events/s (how fast virtual time advances per wall second) so tick-queue
/// or routing regressions show up next to the transport numbers.
struct SimResult {
  sim::ScenarioReport report;
};

SimResult RunSimAtScale(size_t locals, uint64_t windows, double rate,
                        uint64_t gamma) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = locals;
  config.gamma = gamma;
  config.quantiles = {0.5, 0.99};
  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      locals, windows, rate, bench::SensorDistribution());
  sim::ScenarioOptions options;
  options.topology = "fat-tree";
  SimResult result;
  result.report = bench::Unwrap(sim::RunScenario(config, load, options),
                                "sim at scale");
  return result;
}

std::string SimJson(const SimResult& r) {
  JsonWriter w;
  w.Field("topology", r.report.topology)
      .Field("locals", r.report.num_locals)
      .Field("events", r.report.events_ingested)
      .Field("exact_windows", r.report.exact_windows)
      .Field("sim_ticks", r.report.counter("sim.ticks"))
      .Field("sim_events", r.report.counter("sim.events"))
      .Field("event_queue_peak", r.report.event_queue_peak)
      .Field("virtual_time_us", r.report.virtual_time_us)
      .Field("throughput_eps", r.report.throughput_eps)
      .Field("sim_throughput_eps", r.report.sim_throughput_eps);
  return w.Finish();
}

std::string KeyedJson(const KeyedResult& r) {
  JsonWriter w;
  w.Field("keys", r.keys)
      .Field("events", r.events)
      .Field("windows", r.windows)
      .Field("throughput_eps", r.throughput_eps)
      .Field("wire_bytes", r.wire_bytes)
      .Field("bytes_per_window", r.bytes_per_window);
  return w.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t locals = static_cast<size_t>(flags.GetInt("locals", 4));
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 8));
  const double rate = flags.GetDouble("rate", 50'000);
  const uint64_t gamma = static_cast<uint64_t>(flags.GetInt("gamma", 2'000));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 2));
  const std::string out = flags.GetString("out", "BENCH_dema.json");

  std::cout << "=== Perf regression: Dema, 1 root + " << locals
            << " locals, " << windows << " windows, rate=" << rate
            << ", gamma=" << gamma << " ===\n";

  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = locals;
  config.gamma = gamma;
  config.quantiles = {0.5, 0.99};

  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      locals, windows, rate, bench::SensorDistribution());

  ModeResult inline_run = RunInline(config, load);
  ModeResult tcp_run = RunTcpMode("tcp", config, load);
  // The resilient TCP path: heartbeats probing every connection, cumulative
  // acks per read pass, every data frame retained until acked. Its events/s
  // is gated against the baseline like the bare transport's, so ack and
  // retention overhead cannot creep past the regression bar unnoticed.
  transport::TcpSessionOptions session;
  session.heartbeat_interval_us = MillisUs(5);
  session.auto_reconnect = true;
  ModeResult tcp_hb_run = RunTcpMode("tcp_resilient", config, load, session);

  Table table({"mode", "events", "events/s (wall)", "events/s (sim)",
               "select total ms", "select p99 us", "win p99 ms",
               "peak retained", "bytes/event"});
  for (const ModeResult* r :
       {&inline_run, &tcp_run, &tcp_hb_run}) {
    bench::UnwrapStatus(
        table.AddRow({r->mode, FmtCount(r->metrics.events_ingested),
                      FmtF(r->metrics.throughput_eps, 0),
                      FmtF(r->metrics.sim_throughput_eps, 0),
                      FmtF(static_cast<double>(r->select_us_total) / 1e3, 3),
                      FmtF(r->select_us_p99, 1),
                      FmtF(r->WindowLatencyP99() / 1e3, 3),
                      FmtCount(static_cast<uint64_t>(r->peak_retained_events)),
                      FmtF(r->BytesPerEvent(), 2)}),
        "table row");
  }
  bench::EmitTable(table, flags);

  const uint64_t keyed_events =
      static_cast<uint64_t>(flags.GetInt("keyed-events", 200'000));
  const uint64_t keyed_max =
      static_cast<uint64_t>(flags.GetInt("keyed-max-keys", 100'000));
  std::cout << "=== Keyed (multi-tenant) section: 4 shards, 2 locals, "
            << keyed_events << "-event budget per key count ===\n";
  std::vector<KeyedResult> keyed;
  for (uint64_t keys : {uint64_t{1}, uint64_t{1'000}, uint64_t{100'000}}) {
    if (keys > keyed_max) continue;  // CI can scale down with --keyed-max-keys
    keyed.push_back(RunKeyed(keys, /*shards=*/4, workers, keyed_events, gamma));
  }
  Table keyed_table(
      {"keys", "events", "windows", "events/s (wall)", "bytes/window"});
  for (const KeyedResult& r : keyed) {
    bench::UnwrapStatus(
        keyed_table.AddRow({FmtCount(r.keys), FmtCount(r.events),
                            FmtCount(r.windows), FmtF(r.throughput_eps, 0),
                            FmtF(r.bytes_per_window, 1)}),
        "keyed table row");
  }
  bench::EmitTable(keyed_table, flags);

  const size_t sim_locals =
      static_cast<size_t>(flags.GetInt("sim-locals", 1'000));
  const uint64_t sim_windows =
      static_cast<uint64_t>(flags.GetInt("sim-windows", 2));
  const double sim_rate = flags.GetDouble("sim-rate", 100);
  std::cout << "=== Simulator section: " << sim_locals
            << " locals over a routed fat-tree, event-driven delivery ===\n";
  SimResult sim_run = RunSimAtScale(sim_locals, sim_windows, sim_rate, gamma);
  Table sim_table({"topology", "locals", "events", "exact", "sim events",
                   "queue peak", "events/s (wall)"});
  bench::UnwrapStatus(
      sim_table.AddRow({sim_run.report.topology,
                        FmtCount(sim_run.report.num_locals),
                        FmtCount(sim_run.report.events_ingested),
                        FmtCount(sim_run.report.exact_windows),
                        FmtCount(sim_run.report.counter("sim.events")),
                        FmtCount(sim_run.report.event_queue_peak),
                        FmtF(sim_run.report.throughput_eps, 0)}),
      "sim table row");
  bench::EmitTable(sim_table, flags);

  JsonWriter w;
  w.Field("bench", "dema_perf_regress")
      .Field("locals", static_cast<uint64_t>(locals))
      .Field("windows", windows)
      .Field("rate", rate)
      .Field("gamma", gamma)
      .RawField("inline", ModeJson(inline_run))
      .RawField("tcp", ModeJson(tcp_run))
      .RawField("tcp_resilient", ModeJson(tcp_hb_run));
  for (const KeyedResult& r : keyed) {
    w.RawField("keyed_" + std::to_string(r.keys), KeyedJson(r));
  }
  w.RawField("sim_1000", SimJson(sim_run));
  bench::WriteJsonFile(out, w.Finish());
  return 0;
}
