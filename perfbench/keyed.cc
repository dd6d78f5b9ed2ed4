// keyed_100k: the key-sharded service (`shard::ShardedSimHarness`) with
// 100k keys, 4 shards, 2 workers and 2 locals, a few events per key-window.
// While the harness runs, one more thread runs a closed loop of
// `ShardedRootService::Query` calls. Every window and every query answer is
// checked against the exact oracle, computed from the same seeds before the
// timed region.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "obs/registry.h"
#include "shard/sim_run.h"
#include "star.h"

namespace dema::perfbench {

namespace {

constexpr uint64_t kKeys = 100'000;
constexpr uint32_t kShards = 4;
constexpr size_t kWorkers = 2;
constexpr size_t kKeyedLocals = 2;
/// Events per second of event time per (key, local) stream: with 1 s
/// windows, 4 events per key-local window, 8 per key-window.
constexpr double kKeyedEventRate = 4;
constexpr uint64_t kKeyedWindows = 3;
constexpr size_t kKeysPerQuery = 16;
constexpr uint64_t kQuerySpanEvery = 256;

shard::ShardedConfig KeyedConfig() {
  shard::ShardedConfig config;
  config.num_locals = kKeyedLocals;
  config.num_shards = kShards;
  config.num_keys = kKeys;
  config.workers = kWorkers;
  config.gamma = 2'000;
  config.quantiles = {0.5, 0.99};
  return config;
}

shard::KeyedWorkloadConfig KeyedLoad(uint64_t seed) {
  shard::KeyedWorkloadConfig load;
  load.num_windows = kKeyedWindows;
  load.event_rate = kKeyedEventRate;
  load.distribution = SensorDistribution();
  load.seed_base = SeedBase(seed);
  return load;
}

/// Exact answers for every (key, window), indexed `key * windows + window`.
struct KeyedOracle {
  std::vector<uint64_t> sizes;
  std::vector<std::vector<double>> values;
  uint64_t gen_events = 0;
  double gen_seconds = 0;

  size_t Index(net::KeyId key, net::WindowId w) const {
    return static_cast<size_t>(key * kKeyedWindows + w);
  }
};

/// Regenerates every (key, local) stream exactly as the harness seeds it
/// (`shard::kKeySeedStride`) and computes each key-window's quantiles.
Result<KeyedOracle> BuildOracle(const shard::ShardedConfig& config,
                                const shard::KeyedWorkloadConfig& load) {
  KeyedOracle oracle;
  oracle.sizes.resize(kKeys * kKeyedWindows);
  oracle.values.resize(kKeys * kKeyedWindows);
  std::vector<std::vector<double>> window_values(kKeyedWindows);
  int64_t gen_ns = 0;
  for (net::KeyId key = 0; key < kKeys; ++key) {
    for (auto& v : window_values) v.clear();
    const int64_t start = NowNs();
    for (size_t i = 0; i < config.num_locals; ++i) {
      gen::GeneratorConfig cfg;
      cfg.node = static_cast<NodeId>(i + 1);
      cfg.seed = load.seed_base + key * shard::kKeySeedStride + i * 7919;
      cfg.distribution = load.distribution;
      cfg.event_rate = load.event_rate;
      DEMA_ASSIGN_OR_RETURN(auto gen, gen::StreamGenerator::Create(cfg));
      for (uint64_t w = 0; w < kKeyedWindows; ++w) {
        for (const Event& e : gen->GenerateWindow(
                 static_cast<TimestampUs>(w) * config.window_len_us,
                 config.window_len_us)) {
          window_values[w].push_back(e.value);
        }
      }
    }
    gen_ns += NowNs() - start;
    for (uint64_t w = 0; w < kKeyedWindows; ++w) {
      oracle.gen_events += window_values[w].size();
      oracle.sizes[oracle.Index(key, w)] = window_values[w].size();
      oracle.values[oracle.Index(key, w)] =
          ExactQuantiles(window_values[w], config.quantiles);
    }
  }
  oracle.gen_seconds = static_cast<double>(gen_ns) / 1e9;
  return oracle;
}

/// Results of the query loop of one iteration.
struct QueryLoop {
  std::vector<double> latency_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0;
  int64_t queue_depth_max = 0;
  std::string first_error;
};

/// Closed loop of multi-key queries against \p service until \p stop; starts
/// once every key has published its first window, so each answer must be
/// found and equal the oracle for the window it names.
void RunQueries(const shard::ShardedRootService* service,
                const KeyedOracle& oracle, uint64_t seed,
                const std::atomic<bool>* stop, SpanLog* log,
                const obs::Gauge* queue_depth, QueryLoop* loop) {
  while (!stop->load(std::memory_order_relaxed) &&
         service->store().published_windows() < kKeys) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  Rng rng(seed);
  const int64_t start = NowNs();
  while (!stop->load(std::memory_order_relaxed)) {
    net::KeyedQuery query;
    query.query_id = loop->attempted + 1;
    for (size_t k = 0; k < kKeysPerQuery; ++k) {
      query.keys.push_back(
          static_cast<net::KeyId>(rng.UniformInt(0, kKeys - 1)));
    }
    // One query in kQuerySpanEvery gets a span; every query is timed.
    const int32_t span =
        loop->attempted % kQuerySpanEvery == 0 ? log->Begin("shard.query") : -1;
    const int64_t t0 = NowNs();
    net::KeyedQueryReply reply = service->Query(query);
    const int64_t t1 = NowNs();
    log->End(span);
    ++loop->attempted;
    loop->latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (queue_depth != nullptr) {
      loop->queue_depth_max = std::max(loop->queue_depth_max, queue_depth->Value());
    }

    std::string error = reply.error;
    if (error.empty() && reply.answers.size() != query.keys.size()) {
      error = "wrong answer count";
    }
    for (size_t k = 0; error.empty() && k < reply.answers.size(); ++k) {
      const net::KeyedAnswer& a = reply.answers[k];
      if (a.key != query.keys[k] || !a.found || a.degraded ||
          a.window_id >= kKeyedWindows) {
        error = "key " + std::to_string(a.key) + " answer not usable";
      } else if (a.values != oracle.values[oracle.Index(a.key, a.window_id)] ||
                 a.global_size != oracle.sizes[oracle.Index(a.key, a.window_id)]) {
        error = "key " + std::to_string(a.key) + " window " +
                std::to_string(a.window_id) + " differs from the oracle";
      }
    }
    if (!error.empty()) {
      ++loop->failed;
      if (loop->first_error.empty()) loop->first_error = "query: " + error;
    }
  }
  loop->seconds = SecondsSince(start);
}

/// What one keyed iteration measured.
struct KeyedIteration {
  double build_s = 0;
  double run_s = 0;
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t wire_bytes = 0;
  Instruments instruments;
  double task_run_us = 0;
  std::vector<double> latency_us;
  QueryLoop queries;
};

Status RunKeyedOnce(const shard::ShardedConfig& config,
                    const shard::KeyedWorkloadConfig& load,
                    const KeyedOracle& oracle, uint64_t query_seed,
                    SpanLog* main_log, SpanLog* query_log, Report* report,
                    KeyedIteration* it) {
  const int64_t begin = NowNs();
  std::unique_ptr<shard::ShardedSimHarness> harness;
  {
    ScopedSpan span(main_log, "shard.build");
    harness = std::make_unique<shard::ShardedSimHarness>(config);
  }
  it->build_s = SecondsSince(begin);
  DEMA_RETURN_NOT_OK(harness->init_status());

  std::atomic<bool> stop{false};
  const obs::Gauge* queue_depth = harness->registry()->FindGauge("exec.queue_depth");
  std::thread queries(RunQueries, harness->service(), std::cref(oracle),
                      query_seed, &stop, query_log, queue_depth, &it->queries);
  Status run;
  const int64_t run_start = NowNs();
  {
    ScopedSpan span(main_log, "shard.run");
    run = harness->Run(load);
  }
  it->run_s = SecondsSince(run_start);
  stop.store(true);
  queries.join();
  DEMA_RETURN_NOT_OK(run);

  {
    ScopedSpan span(main_log, "bench.verify");
    const auto& outputs = harness->outputs_by_key();
    const std::span<const uint64_t> sizes(oracle.sizes);
    const std::span<const std::vector<double>> values(oracle.values);
    for (net::KeyId key = 0; key < kKeys; ++key) {
      const size_t first = oracle.Index(key, 0);
      CheckOutputs(outputs[key], sizes.subspan(first, kKeyedWindows),
                   values.subspan(first, kKeyedWindows),
                   "keyed_100k key " + std::to_string(key), report);
      for (const sim::WindowOutput& out : outputs[key]) {
        it->latency_us.push_back(static_cast<double>(out.latency_us));
      }
    }
    report->queries_attempted += it->queries.attempted;
    report->queries_failed += it->queries.failed;
    if (!it->queries.first_error.empty()) report->Fail(it->queries.first_error);
  }

  it->events = harness->events_ingested();
  it->windows = kKeys * kKeyedWindows;
  it->wire_bytes = harness->network()->TotalStats().counters.bytes;
  it->instruments = ReadInstruments(*harness->registry(),
                                    harness->network()->StatsByType());
  if (const obs::Histogram* h = harness->registry()->FindHistogram("exec.task_run_us")) {
    it->task_run_us = static_cast<double>(h->Summarize().sum);
  }
  {
    ScopedSpan span(main_log, "shard.teardown");
    harness.reset();
  }
  it->wall_s = SecondsSince(begin);
  return Status::OK();
}

}  // namespace

Status RunKeyed(const Options& options, Report* report) {
  const shard::ShardedConfig config = KeyedConfig();
  const shard::KeyedWorkloadConfig load = KeyedLoad(options.seed);
  DEMA_ASSIGN_OR_RETURN(KeyedOracle oracle, BuildOracle(config, load));
  report->SetLayer("gen.events_per_s",
                   static_cast<double>(oracle.gen_events) / oracle.gen_seconds);

  SpanLog* main_log = report->AddSpanLog(1);
  SpanLog* query_log = report->AddSpanLog(2);
  std::vector<double> build_s, run_s;
  LayerTotals totals;
  double task_run_us = 0;
  int64_t queue_depth_max = 0;
  double query_us = 0;
  uint64_t query_count = 0;

  const uint64_t min_iterations = options.trace ? 4 : 2;
  const int64_t start = NowNs();
  for (uint64_t iteration = 0;
       iteration < min_iterations || SecondsSince(start) < options.seconds;
       ++iteration) {
    const bool traced = options.trace && iteration % 2 == 1;
    main_log->set_enabled(traced);
    query_log->set_enabled(traced);
    KeyedIteration it;
    DEMA_RETURN_NOT_OK(RunKeyedOnce(config, load, oracle,
                                    options.seed * 1'000 + iteration, main_log,
                                    query_log, report, &it));
    if (!traced) {
      report->setup_s.push_back(it.build_s);
      report->wire_bytes += it.wire_bytes;
      report->AddIteration(it.events, it.run_s, it.latency_us);
      report->query_latency_us.insert(report->query_latency_us.end(),
                                      it.queries.latency_us.begin(),
                                      it.queries.latency_us.end());
      report->queries_done += it.queries.attempted - it.queries.failed;
      report->query_seconds += it.queries.seconds;
      continue;
    }
    report->traced_events_per_s.push_back(static_cast<double>(it.events) /
                                          it.run_s);
    build_s.push_back(it.build_s);
    run_s.push_back(it.run_s);
    totals.Add(it.instruments, it.wall_s, it.windows, it.events);
    task_run_us += it.task_run_us;
    queue_depth_max = std::max(queue_depth_max, it.queries.queue_depth_max);
    for (double us : it.queries.latency_us) query_us += us;
    query_count += it.queries.latency_us.size();
  }
  if (!options.trace) return Status::OK();

  const auto& counters = totals.sum.counters;
  report->SetLayer("exec.task_run_us", totals.PerWindow(task_run_us));
  report->SetLayer("exec.queue_depth_max", static_cast<double>(queue_depth_max));
  report->SetLayer("exec.queue_full_blocks",
                   totals.PerWindow(static_cast<double>(
                       SumCounter(counters, "exec.queue_full_blocks"))));
  report->SetLayer("shard.build_s", Median(build_s));
  report->SetLayer("shard.run_s", Median(run_s));
  report->SetLayer("shard.frames_per_window",
                   totals.PerWindow(static_cast<double>(
                       SumCounter(counters, "shard.frames"))));
  report->SetLayer("shard.query_us",
                   query_count > 0 ? query_us / static_cast<double>(query_count) : 0);
  AddInstrumentLayers(totals, /*keyed=*/true, report);
  report->SetLayer("trace.uncovered_share",
                   1.0 - main_log->TopLevelUs() / (totals.wall_s * 1e6));
  return Status::OK();
}

}  // namespace dema::perfbench
