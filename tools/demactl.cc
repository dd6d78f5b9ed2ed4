// demactl — command-line front end for the Dema library.
//
// Subcommands:
//   run          run one system over a synthetic workload and print
//                per-window results plus run metrics
//   compare      run several systems over the same workload and print a
//                side-by-side metric table
//   sustainable  binary-search the maximum sustainable throughput
//   serve        run one node (root or local) of a TCP deployment
//   cluster      run a whole cluster on this machine (--tcp forks one
//                process per local node talking TCP over loopback; without
//                it, a deterministic in-process run)
//   chaos        replay a seeded fault schedule (drops, duplicates, delays,
//                frame corruption, payload tampering, crashes, partitions)
//                and assert every window is exact against an oracle or
//                explicitly degraded with a cause
//
// Common flags:
//   --system=dema|scotty|desis|tdigest|tdigest-dec|qdigest   (run/sustainable)
//   --locals=N --windows=N --rate=EV_PER_SEC --gamma=G
//   --quantiles=0.25,0.5,0.99   --dist=uniform|normal|zipf|sensorwalk|exponential
//   --scale-rates=1,2,10        per-node value multipliers
//   --slide-ms=MS               sliding windows (Dema only)
//   --workers=N                 executor threads running the shard strands
//                               (shard, serve --role=root --shards=S only)
//   --adaptive --per-node-gamma --naive-selection
//   --csv=PATH                  also dump the table as CSV
//   --metrics-out=PATH          dump the run's metrics registry + per-window
//                               trace spans as JSON (run/serve/cluster/shard)
//   --metrics-log-ms=MS         log all counters/gauges every MS milliseconds
//                               while the run is live
//
// Examples:
//   demactl run --system=dema --locals=4 --rate=100000 --quantiles=0.5,0.99
//   demactl compare --locals=2 --windows=6
//   demactl sustainable --system=scotty --locals=4

#include <iostream>
#include <memory>
#include <optional>

#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/table.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "shard/config.h"
#include "shard/serve.h"
#include "shard/sim_run.h"
#include "sim/chaos.h"
#include "sim/driver.h"
#include "sim/scenario.h"
#include "sim/sustainable.h"
#include "sim/tcp_run.h"
#include "sim/tree.h"
#include "sim/topology.h"

using namespace dema;

namespace {

int Fail(const std::string& message) {
  std::cerr << "demactl: " << message << "\n";
  return 1;
}

/// Exit code 2, after one error line per flag \p cmd never read (a typo, or
/// a flag of another command); 0 when it read every flag given. Each command
/// calls it once it has read all its settings and before it does any work.
int RejectUnread(const Flags& flags, const char* cmd) {
  const std::vector<std::string> unread = flags.Unread();
  for (const std::string& key : unread) {
    std::cerr << "demactl " << cmd << ": unknown or unused flag --" << key
              << "\n";
  }
  return unread.empty() ? 0 : 2;
}

Result<sim::SystemKind> ParseSystem(const std::string& name) {
  if (name == "dema") return sim::SystemKind::kDema;
  if (name == "scotty" || name == "central") return sim::SystemKind::kCentralExact;
  if (name == "desis") return sim::SystemKind::kDesisMerge;
  if (name == "tdigest") return sim::SystemKind::kTDigestCentral;
  if (name == "tdigest-dec") return sim::SystemKind::kTDigestDecentral;
  if (name == "qdigest") return sim::SystemKind::kQDigest;
  return Status::InvalidArgument("unknown system: " + name);
}

Result<sim::SystemConfig> BuildConfig(const Flags& flags) {
  sim::SystemConfig config;
  DEMA_ASSIGN_OR_RETURN(config.kind,
                        ParseSystem(flags.GetString("system", "dema")));
  config.num_locals = static_cast<size_t>(flags.GetInt("locals", 2));
  config.gamma = static_cast<uint64_t>(flags.GetInt("gamma", 10'000));
  config.quantiles = flags.GetDoubleList("quantiles", {0.5});
  config.adaptive_gamma = flags.Has("adaptive");
  config.per_node_gamma = flags.Has("per-node-gamma");
  config.naive_selection = flags.Has("naive-selection");
  if (flags.Has("slide-ms")) {
    config.window_slide_us = MillisUs(flags.GetInt("slide-ms", 1000));
  }
  config.qdigest_hi = flags.GetDouble("qdigest-hi", 1'000'000);
  // Fail at flag-parse time, not mid-run: a bad flag (say, a quantile outside
  // (0, 1]) would otherwise only surface once the system is built (or, worse,
  // mid-deployment on the root).
  DEMA_RETURN_NOT_OK(sim::ValidateSystemConfig(config));
  return config;
}

Result<sim::WorkloadConfig> BuildWorkload(const Flags& flags,
                                          const sim::SystemConfig& config) {
  gen::DistributionParams dist;
  DEMA_ASSIGN_OR_RETURN(
      dist.kind,
      gen::DistributionKindFromString(flags.GetString("dist", "sensorwalk")));
  dist.lo = flags.GetDouble("lo", 0);
  dist.hi = flags.GetDouble("hi", 10'000);
  dist.stddev = flags.GetDouble("stddev",
                                dist.kind == gen::DistributionKind::kSensorWalk
                                    ? 25
                                    : 1'500);
  dist.mean = flags.GetDouble("mean", (dist.lo + dist.hi) / 2);
  std::vector<double> scale_rates = flags.GetDoubleList("scale-rates", {});
  sim::WorkloadConfig load = sim::MakeUniformWorkload(
      config.num_locals, static_cast<uint64_t>(flags.GetInt("windows", 5)),
      flags.GetDouble("rate", 50'000), dist, scale_rates,
      static_cast<uint64_t>(flags.GetInt("seed", 1000)));
  if (flags.Has("disorder-ms")) {
    load.max_disorder_us = MillisUs(flags.GetInt("disorder-ms", 0));
    load.allowed_lateness_us =
        MillisUs(flags.GetInt("lateness-ms", flags.GetInt("disorder-ms", 0)));
  }
  return load;
}

// --- observability plumbing -------------------------------------------------

/// A command's observability flags: `--metrics-log-ms` and `--metrics-out`.
struct ObsFlags {
  explicit ObsFlags(const Flags& flags)
      : log_ms(flags.Has("metrics-log-ms")
                   ? std::optional<int64_t>(flags.GetInt("metrics-log-ms", 1000))
                   : std::nullopt),
        metrics_out(flags.GetString("metrics-out", "")) {}

  std::optional<int64_t> log_ms;
  std::string metrics_out;
};

/// Registry + tracer owned by a demactl command, wired into the system config
/// so every node, transport, and driver records into one place.
struct CommandObs {
  obs::Registry registry;
  obs::TraceRecorder tracer;
  std::unique_ptr<obs::PeriodicLogger> logger;
  std::string metrics_out;

  /// \p enable_logger must be false when the command forks afterwards: a
  /// child forked while the logger thread holds the registry mutex would
  /// deadlock on its first instrument lookup.
  /// \p config may be null for commands (tree) that wire the registry into
  /// their own config type.
  CommandObs(sim::SystemConfig* config, const ObsFlags& flags,
             bool enable_logger = true)
      : metrics_out(flags.metrics_out) {
    if (config != nullptr) {
      config->registry = &registry;
      config->tracer = &tracer;
    }
    if (!flags.log_ms) return;
    if (!enable_logger) {
      std::cerr << "demactl: --metrics-log-ms is ignored for forked runs\n";
      return;
    }
    // The periodic dump logs at Info; asking for it opts into that level
    // (the global default of Warn would silently swallow every tick).
    if (Logger::GetLevel() > LogLevel::kInfo) Logger::SetLevel(LogLevel::kInfo);
    logger = std::make_unique<obs::PeriodicLogger>(&registry,
                                                   MillisUs(*flags.log_ms));
  }

  /// Writes the JSON dump when --metrics-out was given; logs on failure.
  void Export() {
    logger.reset();  // final state should not race a logger tick
    if (metrics_out.empty()) return;
    Status st = obs::WriteObsFile(metrics_out, registry, &tracer);
    if (st.ok()) {
      std::cerr << "demactl: metrics written to " << metrics_out << "\n";
    } else {
      std::cerr << "demactl: metrics export failed: " << st << "\n";
    }
  }
};

/// Prints \p table, and writes it to \p csv too unless that is empty (the
/// `--csv=PATH` flag).
void EmitTable(const Table& table, const std::string& csv) {
  table.Print(std::cout);
  if (!csv.empty()) {
    Status st = table.WriteCsv(csv);
    if (st.ok()) {
      std::cout << "CSV written to " << csv << "\n";
    } else {
      std::cerr << "CSV write failed: " << st << "\n";
    }
  }
}

/// Mean window latency of a run, from its `root.window_latency_us`.
std::string MeanLatency(const sim::RunMetrics& metrics) {
  const double mean_us =
      metrics.registry->HistogramSummary("root.window_latency_us").mean;
  return FmtF(mean_us / 1000.0, 2) + " ms";
}

std::vector<std::string> MetricsRow(const char* name,
                                    const sim::RunMetrics& metrics) {
  return {name,
          FmtCount(metrics.events_ingested),
          FmtRate(metrics.sim_throughput_eps),
          MeanLatency(metrics),
          FmtCount(metrics.network_total.events),
          FmtBytes(metrics.network_total.bytes),
          metrics.bottleneck};
}

int CmdRun(const Flags& flags) {
  auto config_result = BuildConfig(flags);
  if (!config_result.ok()) return Fail(config_result.status().ToString());
  sim::SystemConfig config = *config_result;
  auto load_result = BuildWorkload(flags, config);
  if (!load_result.ok()) return Fail(load_result.status().ToString());
  const ObsFlags obs_flags(flags);
  const std::string csv = flags.GetString("csv", "");
  if (int rc = RejectUnread(flags, "run")) return rc;

  CommandObs command_obs(&config, obs_flags);
  RealClock clock;
  net::Network::Options net_options;
  net_options.registry = &command_obs.registry;
  net::Network network(&clock, net_options);
  auto system_result = sim::BuildSystem(config, &network, &clock);
  if (!system_result.ok()) return Fail(system_result.status().ToString());
  sim::System system = std::move(system_result).MoveValueUnsafe();
  sim::SyncDriver driver(&system, &network);
  sim::WorkloadConfig load = *load_result;
  load.window_len_us = config.window_len_us;
  load.window_slide_us = config.window_slide_us;
  Status st = driver.Run(load);
  if (!st.ok()) return Fail(st.ToString());

  std::vector<std::string> headers = {"window", "events"};
  for (double q : config.quantiles) headers.push_back("q" + FmtF(q * 100, 0));
  headers.push_back("latency ms");
  Table table(headers);
  for (const sim::WindowOutput& out : driver.outputs()) {
    std::vector<std::string> row = {std::to_string(out.window_id),
                                    FmtCount(out.global_size)};
    for (double v : out.values) row.push_back(FmtF(v, 2));
    row.push_back(FmtF(ToMillis(out.latency_us), 2));
    (void)table.AddRow(row);
  }
  EmitTable(table, csv);

  auto total = network.TotalStats();
  std::cout << "ingested " << FmtCount(driver.events_ingested()) << " events; "
            << FmtCount(total.counters.events) << " raw events / "
            << FmtBytes(total.counters.bytes) << " on the wire\n";
  command_obs.Export();
  return 0;
}

int CmdCompare(const Flags& flags) {
  auto base = BuildConfig(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  // Reads the workload flags once up front; each system's run rebuilds it.
  auto base_load = BuildWorkload(flags, *base);
  if (!base_load.ok()) return Fail(base_load.status().ToString());
  const bool json = flags.Has("json");
  const std::string csv = flags.GetString("csv", "");
  if (int rc = RejectUnread(flags, "compare")) return rc;

  Table table({"system", "events", "throughput", "mean latency", "wire events",
               "wire bytes", "bottleneck"});
  for (auto kind :
       {sim::SystemKind::kDema, sim::SystemKind::kCentralExact,
        sim::SystemKind::kDesisMerge, sim::SystemKind::kTDigestCentral,
        sim::SystemKind::kTDigestDecentral, sim::SystemKind::kQDigest}) {
    sim::SystemConfig config = *base;
    config.kind = kind;
    config.window_slide_us = 0;  // baselines are tumbling-only
    auto load_result = BuildWorkload(flags, config);
    if (!load_result.ok()) return Fail(load_result.status().ToString());
    auto metrics = sim::RunSync(config, *load_result);
    if (!metrics.ok()) return Fail(metrics.status().ToString());
    if (json) {
      JsonWriter row;
      row.Field("system", sim::SystemKindToString(kind))
          .RawField("metrics", sim::RunMetricsToJson(*metrics));
      std::cout << row.Finish() << "\n";
    }
    (void)table.AddRow(MetricsRow(sim::SystemKindToString(kind), *metrics));
  }
  if (!json) EmitTable(table, csv);
  return 0;
}

int CmdSustainable(const Flags& flags) {
  auto config_result = BuildConfig(flags);
  if (!config_result.ok()) return Fail(config_result.status().ToString());
  gen::DistributionParams dist;
  auto kind_result =
      gen::DistributionKindFromString(flags.GetString("dist", "uniform"));
  if (!kind_result.ok()) return Fail(kind_result.status().ToString());
  dist.kind = *kind_result;
  dist.lo = flags.GetDouble("lo", 0);
  dist.hi = flags.GetDouble("hi", 10'000);

  sim::SustainableSearchOptions opts;
  opts.windows = static_cast<uint64_t>(flags.GetInt("windows", 3));
  if (int rc = RejectUnread(flags, "sustainable")) return rc;
  auto result = sim::FindSustainableThroughput(*config_result, dist, opts);
  if (!result.ok()) return Fail(result.status().ToString());
  std::cout << sim::SystemKindToString(config_result->kind)
            << " sustainable throughput: " << FmtRate(result->total_rate_eps)
            << " total (" << FmtRate(result->per_node_rate_eps) << " per node, "
            << result->probes << " probes)\n";
  return 0;
}

int CmdTree(const Flags& flags) {
  sim::TreeConfig config;
  config.num_relays = static_cast<size_t>(flags.GetInt("relays", 2));
  config.locals_per_relay = static_cast<size_t>(flags.GetInt("per-relay", 3));
  config.gamma = static_cast<uint64_t>(flags.GetInt("gamma", 1'000));
  config.quantiles = flags.GetDoubleList("quantiles", {0.5});
  gen::DistributionParams dist;
  auto kind_result =
      gen::DistributionKindFromString(flags.GetString("dist", "sensorwalk"));
  if (!kind_result.ok()) return Fail(kind_result.status().ToString());
  dist.kind = *kind_result;
  dist.lo = flags.GetDouble("lo", 0);
  dist.hi = flags.GetDouble("hi", 10'000);
  dist.stddev = flags.GetDouble("stddev", 25);
  const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 4));
  const double rate = flags.GetDouble("rate", 20'000);
  const ObsFlags obs_flags(flags);
  const std::string csv = flags.GetString("csv", "");
  if (int rc = RejectUnread(flags, "tree")) return rc;

  CommandObs command_obs(nullptr, obs_flags);
  config.registry = &command_obs.registry;
  config.tracer = &command_obs.tracer;

  RealClock clock;
  net::Network::Options net_options;
  net_options.registry = &command_obs.registry;
  net::Network network(&clock, net_options);
  auto tree_result = sim::BuildTreeSystem(config, &network, &clock);
  if (!tree_result.ok()) return Fail(tree_result.status().ToString());
  sim::System tree = std::move(tree_result).MoveValueUnsafe();

  size_t leaves = config.num_relays * config.locals_per_relay;
  sim::WorkloadConfig load =
      sim::MakeUniformWorkload(leaves, windows, rate, dist);
  load.window_len_us = config.window_len_us;
  for (size_t i = 0; i < leaves; ++i) load.generators[i].node = tree.local_ids[i];

  sim::SyncDriver driver(&tree, &network);
  Status st = driver.Run(load);
  if (!st.ok()) return Fail(st.ToString());

  std::vector<std::string> headers = {"window", "events"};
  for (double q : config.quantiles) headers.push_back("q" + FmtF(q * 100, 0));
  Table table(headers);
  for (const sim::WindowOutput& out : driver.outputs()) {
    std::vector<std::string> row = {std::to_string(out.window_id),
                                    FmtCount(out.global_size)};
    for (double v : out.values) row.push_back(FmtF(v, 2));
    (void)table.AddRow(row);
  }
  EmitTable(table, csv);
  uint64_t uplink = 0;
  for (NodeId relay : tree.relay_ids) {
    uplink += network.GetLinkStats(relay, tree.root_id).counters.bytes;
  }
  std::cout << leaves << " leaves through " << config.num_relays
            << " relays; root uplink carried " << FmtBytes(uplink) << " for "
            << FmtCount(driver.events_ingested()) << " events.\n";
  command_obs.Export();
  return 0;
}

// --- key-sharded multi-tenant deployment (src/shard) ------------------------

Result<shard::ShardedConfig> BuildShardedConfig(const Flags& flags) {
  shard::ShardedConfig sc;
  sc.num_locals = static_cast<size_t>(flags.GetInt("locals", 2));
  sc.num_shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  sc.num_keys = static_cast<uint64_t>(flags.GetInt("keys", 16));
  sc.workers = static_cast<size_t>(flags.GetInt("workers", 2));
  sc.gamma = static_cast<uint64_t>(flags.GetInt("gamma", 10'000));
  sc.quantiles = flags.GetDoubleList("quantiles", {0.5});
  DEMA_RETURN_NOT_OK(shard::ValidateShardedConfig(sc));
  return sc;
}

Result<shard::KeyedWorkloadConfig> BuildKeyedWorkload(const Flags& flags) {
  shard::KeyedWorkloadConfig load;
  load.num_windows = static_cast<uint64_t>(flags.GetInt("windows", 3));
  load.event_rate = flags.GetDouble("rate", 1'000);
  DEMA_ASSIGN_OR_RETURN(
      load.distribution.kind,
      gen::DistributionKindFromString(flags.GetString("dist", "sensorwalk")));
  load.distribution.lo = flags.GetDouble("lo", 0);
  load.distribution.hi = flags.GetDouble("hi", 10'000);
  load.distribution.stddev = flags.GetDouble("stddev", 25);
  load.distribution.mean =
      flags.GetDouble("mean", (load.distribution.lo + load.distribution.hi) / 2);
  load.seed_base = static_cast<uint64_t>(flags.GetInt("seed", 1000));
  return load;
}

/// Keys asked on the command line: `--keys-list=0,5,9` wins, else all of
/// `--keys=K` (the service's key universe, ids 0..K-1).
std::vector<net::KeyId> QueryKeys(const Flags& flags, uint64_t num_keys) {
  std::vector<net::KeyId> keys;
  if (flags.Has("keys-list")) {
    for (double k : flags.GetDoubleList("keys-list", {})) {
      keys.push_back(static_cast<net::KeyId>(k));
    }
    return keys;
  }
  keys.reserve(num_keys);
  for (net::KeyId k = 0; k < num_keys; ++k) keys.push_back(k);
  return keys;
}

Result<std::pair<std::string, uint16_t>> ParseHostPort(const std::string& spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    return Status::InvalidArgument("expected HOST:PORT, got '" + spec + "'");
  }
  int port = 0;
  try {
    port = std::stoi(spec.substr(colon + 1));
  } catch (...) {
    return Status::InvalidArgument("bad port in '" + spec + "'");
  }
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port out of range in '" + spec + "'");
  }
  return std::make_pair(spec.substr(0, colon), static_cast<uint16_t>(port));
}

/// The run's metrics as JSON when \p json, else as a table (also written to
/// \p csv unless that is empty).
void PrintTcpMetrics(const sim::RunMetrics& metrics, bool json,
                     const std::string& csv) {
  if (json) {
    std::cout << sim::RunMetricsToJson(metrics) << "\n";
    return;
  }
  Table table({"windows", "events", "throughput", "mean latency", "wire events",
               "wire bytes"});
  (void)table.AddRow({FmtCount(metrics.windows_emitted),
                      FmtCount(metrics.events_ingested),
                      FmtRate(metrics.throughput_eps), MeanLatency(metrics),
                      FmtCount(metrics.network_total.events),
                      FmtBytes(metrics.network_total.bytes)});
  EmitTable(table, csv);
}

/// Session-resilience tuning shared by every TCP command: `--heartbeat-ms`
/// turns on idle-connection heartbeats + dead-peer detection,
/// `--heartbeat-misses` sets the silence budget, `--auto-reconnect` enables
/// background redial with acked-frame replay.
transport::TcpSessionOptions SessionTuningFromFlags(const Flags& flags) {
  transport::TcpSessionOptions tuning;
  if (flags.Has("heartbeat-ms")) {
    tuning.heartbeat_interval_us =
        MillisUs(flags.GetInt("heartbeat-ms", 0));
  }
  tuning.heartbeat_misses = static_cast<int>(flags.GetInt("heartbeat-misses", 3));
  tuning.auto_reconnect = flags.Has("auto-reconnect");
  return tuning;
}

/// The settings of every `serve` role, flat or sharded, root or local:
/// `--timeout-s`, `--outbox-cap` and the session flags.
template <typename Options>
Options ServeOptions(const Flags& flags) {
  Options opts;
  opts.timeout_us = SecondsUs(flags.GetInt("timeout-s", 120));
  opts.outbox_capacity = static_cast<size_t>(flags.GetInt("outbox-cap", 1024));
  opts.session = SessionTuningFromFlags(flags);
  return opts;
}

Result<sim::TcpRootOptions> ServeRootOptions(const Flags& flags) {
  DEMA_ASSIGN_OR_RETURN(
      auto listen, ParseHostPort(flags.GetString("listen", "127.0.0.1:7311")));
  auto opts = ServeOptions<sim::TcpRootOptions>(flags);
  opts.listen_host = listen.first;
  opts.listen_port = listen.second;
  return opts;
}

Result<sim::TcpLocalOptions> ServeLocalOptions(const Flags& flags) {
  DEMA_ASSIGN_OR_RETURN(
      auto root, ParseHostPort(flags.GetString("root", "127.0.0.1:7311")));
  auto opts = ServeOptions<sim::TcpLocalOptions>(flags);
  opts.root_host = root.first;
  opts.root_port = root.second;
  return opts;
}

/// Sharded (multi-tenant) serve roles, selected by `--shards=S`.
int CmdServeSharded(const Flags& flags) {
  auto sc_result = BuildShardedConfig(flags);
  if (!sc_result.ok()) return Fail(sc_result.status().ToString());
  shard::ShardedConfig sc = *sc_result;

  std::string role = flags.GetString("role", "");
  if (role == "root") {
    auto opts = ServeRootOptions(flags);
    if (!opts.ok()) return Fail(opts.status().ToString());
    opts->linger_us = SecondsUs(flags.GetInt("linger-s", 10));
    const uint64_t windows = static_cast<uint64_t>(flags.GetInt("windows", 3));
    if (int rc = RejectUnread(flags, "serve")) return rc;
    opts->on_listening = [&](uint16_t port) {
      std::cerr << "demactl: sharded root listening on " << opts->listen_host
                << ":" << port << " (" << sc.num_shards << " shards, "
                << sc.num_keys << " keys, " << sc.num_locals << " locals)\n";
    };
    auto metrics = shard::RunShardedTcpRoot(sc, windows, *opts);
    if (!metrics.ok()) return Fail(metrics.status().ToString());
    std::cout << "sharded root: " << FmtCount(metrics->windows_emitted)
              << " per-key windows across " << sc.num_keys << " keys, "
              << FmtCount(metrics->registry->CounterValue("shard.queries"))
              << " queries answered in " << FmtF(metrics->wall_seconds, 2)
              << " s\n";
    return 0;
  }
  if (role == "local") {
    auto opts = ServeLocalOptions(flags);
    if (!opts.ok()) return Fail(opts.status().ToString());
    auto load_result = BuildKeyedWorkload(flags);
    if (!load_result.ok()) return Fail(load_result.status().ToString());
    NodeId id = static_cast<NodeId>(flags.GetInt("id", 1));
    if (int rc = RejectUnread(flags, "serve")) return rc;
    auto report = shard::RunShardedTcpLocal(sc, *load_result, id, *opts);
    if (!report.ok()) return Fail(report.status().ToString());
    std::cout << "keyed local " << id << ": ingested "
              << FmtCount(report->events_ingested) << " events across "
              << sc.num_keys << " keys\n";
    return 0;
  }
  return Fail("sharded serve needs --role=root or --role=local");
}

int CmdServe(const Flags& flags) {
  if (flags.Has("shards")) return CmdServeSharded(flags);
  auto config_result = BuildConfig(flags);
  if (!config_result.ok()) return Fail(config_result.status().ToString());
  sim::SystemConfig config = *config_result;
  auto load_result = BuildWorkload(flags, config);
  if (!load_result.ok()) return Fail(load_result.status().ToString());
  const ObsFlags obs_flags(flags);

  std::string role = flags.GetString("role", "");
  if (role == "root") {
    auto opts = ServeRootOptions(flags);
    if (!opts.ok()) return Fail(opts.status().ToString());
    const bool json = flags.Has("json");
    const std::string csv = flags.GetString("csv", "");
    if (int rc = RejectUnread(flags, "serve")) return rc;
    CommandObs command_obs(&config, obs_flags);
    opts->on_listening = [&](uint16_t port) {
      std::cerr << "demactl: root listening on " << opts->listen_host << ":"
                << port << ", waiting for " << config.num_locals
                << " locals\n";
    };
    auto metrics =
        sim::RunTcpRoot(config, load_result->ExpectedWindows(), *opts);
    if (!metrics.ok()) return Fail(metrics.status().ToString());
    PrintTcpMetrics(*metrics, json, csv);
    command_obs.Export();
    return 0;
  }
  if (role == "local") {
    auto opts = ServeLocalOptions(flags);
    if (!opts.ok()) return Fail(opts.status().ToString());
    NodeId id = static_cast<NodeId>(flags.GetInt("id", 1));
    if (int rc = RejectUnread(flags, "serve")) return rc;
    CommandObs command_obs(&config, obs_flags);
    auto report = sim::RunTcpLocal(config, *load_result, id, *opts);
    if (!report.ok()) return Fail(report.status().ToString());
    uint64_t sent_bytes = 0;
    for (const auto& [link, counters] : report->sent_links) {
      (void)link;
      sent_bytes += counters.bytes;
    }
    std::cout << "local " << id << ": ingested "
              << FmtCount(report->events_ingested) << " events, sent "
              << FmtBytes(sent_bytes) << " to the root\n";
    command_obs.Export();
    return 0;
  }
  return Fail("serve needs --role=root or --role=local");
}

/// Connection-level chaos over the forked TCP cluster
/// (`chaos --conn-kill=N@F..U`): sockets are severed mid-window — plus
/// optional CRC-caught frame corruption and write stalls — and the session
/// layer (heartbeats, redial, acked-frame replay) must make every fault
/// invisible: the quantiles must exactly match a fault-free in-process run.
int CmdConnChaos(const Flags& flags) {
  auto plan_result = sim::ParseConnKillSpec(flags.GetString("conn-kill", ""));
  if (!plan_result.ok()) return Fail(plan_result.status().ToString());

  auto config_result = BuildConfig(flags);
  if (!config_result.ok()) return Fail(config_result.status().ToString());
  sim::SystemConfig config = *config_result;
  if (config.kind != sim::SystemKind::kDema) {
    return Fail("chaos supports --system=dema only");
  }
  if (flags.Has("deadline")) {
    config.recovery.deadline_ticks =
        static_cast<uint64_t>(flags.GetInt("deadline", 0));
  }
  auto load_result = BuildWorkload(flags, config);
  if (!load_result.ok()) return Fail(load_result.status().ToString());
  sim::WorkloadConfig load = *load_result;
  load.window_len_us = config.window_len_us;

  sim::TcpClusterFaultOptions fault;
  fault.conn_kill = *plan_result;
  double corrupt = flags.GetDouble("corrupt-rate", 0.0);
  if (corrupt < 0 || corrupt >= 1) {
    return Fail("--corrupt-rate must be in [0, 1)");
  }
  fault.corrupt_rate = corrupt;
  fault.corrupt_seed = static_cast<uint64_t>(flags.GetInt("corrupt-seed", 0));
  fault.session = SessionTuningFromFlags(flags);
  if (fault.session.heartbeat_interval_us <= 0) {
    // Connection chaos is pointless without liveness detection; default to a
    // tight interval so kills are noticed well inside a test window.
    fault.session.heartbeat_interval_us = MillisUs(20);
  }
  fault.session.auto_reconnect = true;
  fault.write_stall_after_frames =
      static_cast<uint64_t>(flags.GetInt("write-stall-after", 0));
  fault.write_stall_us = MillisUs(flags.GetInt("write-stall-ms", 50));
  if (int rc = RejectUnread(flags, "chaos")) return rc;

  auto report_result = sim::RunTcpConnChaos(config, load, fault);
  if (!report_result.ok()) return Fail(report_result.status().ToString());
  sim::TcpConnChaosReport report = std::move(report_result).MoveValueUnsafe();

  const obs::Registry& registry = *report.metrics.registry;
  std::cout << "conn chaos: "
            << registry.CounterValue("net.conn_kills{layer=inject}")
            << " kills injected, " << registry.CounterValue("net.peer_down")
            << " peer-down, " << registry.CounterValue("net.reconnects")
            << " redials, " << registry.CounterValue("net.replayed_frames")
            << " frames replayed, "
            << registry.CounterValue("net.partial_frame_drops")
            << " partial-frame drops\n"
            << "parity: " << report.outputs.size() << " windows vs "
            << report.reference.size() << " reference, "
            << report.degraded_windows << " degraded, "
            << report.mismatched_windows << " mismatched\n";
  if (!report.Invariant()) {
    return Fail("conn-chaos invariant violated: " + report.violation);
  }
  std::cout << "conn-chaos invariant held: every fault fired and every "
               "window is exact and identical to the fault-free run\n";
  return 0;
}

int CmdChaos(const Flags& flags) {
  if (flags.Has("conn-kill")) return CmdConnChaos(flags);
  if (!flags.Has("fault-schedule")) {
    return Fail(
        "chaos needs --fault-schedule=SPEC, e.g. "
        "--fault-schedule=drop=0.05,dup=0.02,seed=7,crash=1@2+1");
  }
  auto plan_result =
      sim::ParseFaultSchedule(flags.GetString("fault-schedule", ""));
  if (!plan_result.ok()) return Fail(plan_result.status().ToString());
  sim::ScenarioOptions options;
  options.topology = "inline";
  options.faults = *plan_result;
  if (flags.Has("corrupt-rate")) {
    // Convenience alias for `corrupt=P` in the schedule spec: per-message
    // frame byte-flip probability, detected (and dropped) by the CRC check.
    double rate = flags.GetDouble("corrupt-rate", 0.0);
    if (rate < 0 || rate >= 1) {
      return Fail("--corrupt-rate must be in [0, 1)");
    }
    options.faults.corrupt_prob = rate;
  }

  auto config_result = BuildConfig(flags);
  if (!config_result.ok()) return Fail(config_result.status().ToString());
  sim::SystemConfig config = *config_result;
  if (config.kind != sim::SystemKind::kDema) {
    return Fail("chaos supports --system=dema only");
  }
  auto load_result = BuildWorkload(flags, config);
  if (!load_result.ok()) return Fail(load_result.status().ToString());
  sim::WorkloadConfig load = *load_result;
  load.window_len_us = config.window_len_us;
  const bool verify = flags.Has("verify-determinism");
  const std::string csv = flags.GetString("csv", "");
  if (int rc = RejectUnread(flags, "chaos")) return rc;

  auto report_result = sim::RunScenario(config, load, options);
  if (!report_result.ok()) return Fail(report_result.status().ToString());
  sim::ScenarioReport report = std::move(report_result).MoveValueUnsafe();

  std::vector<std::string> headers = {"window", "events", "status", "cause",
                                      "bound"};
  for (double q : config.quantiles) headers.push_back("q" + FmtF(q * 100, 0));
  Table table(headers);
  for (const sim::WindowVerdict& w : report.windows) {
    const sim::WindowOutput& out = w.output;
    std::string status = !w.emitted          ? "MISSING"
                         : out.degraded      ? "degraded"
                         : w.matches_oracle  ? "exact"
                                             : "MISMATCH";
    std::vector<std::string> row = {std::to_string(out.window_id),
                                    FmtCount(out.global_size), status,
                                    out.degrade_cause,
                                    out.degraded
                                        ? FmtCount(out.rank_error_bound)
                                        : ""};
    for (size_t i = 0; i < config.quantiles.size(); ++i) {
      row.push_back(i < out.values.size() ? FmtF(out.values[i], 2) : "-");
    }
    (void)table.AddRow(row);
  }
  EmitTable(table, csv);
  std::cout << report.exact_windows << " exact, " << report.degraded_windows
            << " degraded, " << report.mismatched_windows << " mismatched, "
            << report.missing_windows << " missing; faults: "
            << report.counter("net.dropped") << " dropped, "
            << report.duplicates() << " duplicated, "
            << report.counter("net.delayed") << " delayed, "
            << report.counter("net.corrupted") << " corrupted; "
            << report.counter("root.retries") << " root retries, "
            << report.restarts << " restarts; defense: "
            << report.counter("dema.rejected") << " rejected, "
            << report.counter("dema.quarantined") << " quarantined, "
            << report.counter("dema.readmitted") << " re-admitted\n";

  if (verify) {
    auto second = sim::RunScenario(config, load, options);
    if (!second.ok()) return Fail(second.status().ToString());
    std::string diff = sim::DescribeScenarioDiff(report, *second);
    if (!diff.empty()) {
      return Fail("determinism check failed: " + diff);
    }
    std::cout << "determinism check passed: second run identical\n";
  }

  if (!report.Invariant()) {
    return Fail("chaos invariant violated: " + report.violation);
  }
  std::cout << "chaos invariant held: every window exact or explicitly "
               "degraded, root ended idle\n";
  return 0;
}

/// Splits `--topology=star,tree:fanout=4,wan:regions=4,wan-latency-us=100`
/// into topology specs. Commas separate topologies only when the next token
/// starts a known kind; otherwise they continue the previous spec's options
/// (the wan spec takes several comma-separated keys).
std::vector<std::string> SplitTopologyList(const std::string& list) {
  auto starts_kind = [](const std::string& s) {
    for (const char* kind :
         {"inline", "flat", "star", "tree", "fat-tree", "wan"}) {
      size_t n = std::string(kind).size();
      if (s.compare(0, n, kind) == 0 &&
          (s.size() == n || s[n] == ':')) {
        return true;
      }
    }
    return false;
  };
  std::vector<std::string> specs;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    std::string piece = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!piece.empty()) {
      if (!specs.empty() && !starts_kind(piece)) {
        specs.back() += "," + piece;
      } else {
        specs.push_back(piece);
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return specs;
}

int CmdSim(const Flags& flags) {
  std::vector<std::string> topologies =
      SplitTopologyList(flags.GetString("topology", "star"));
  if (topologies.empty()) {
    return Fail("sim needs --topology=SPEC[,SPEC...], e.g. "
                "--topology=star,tree,fat-tree,wan");
  }

  sim::ScenarioOptions options;
  if (flags.Has("fault-schedule")) {
    auto plan = sim::ParseFaultSchedule(flags.GetString("fault-schedule", ""));
    if (!plan.ok()) return Fail(plan.status().ToString());
    options.faults = *plan;
  }

  auto config_result = BuildConfig(flags);
  if (!config_result.ok()) return Fail(config_result.status().ToString());
  sim::SystemConfig config = *config_result;
  auto load_result = BuildWorkload(flags, config);
  if (!load_result.ok()) return Fail(load_result.status().ToString());
  sim::WorkloadConfig load = *load_result;
  load.window_len_us = config.window_len_us;

  Table table({"topology", "locals", "events", "exact", "degraded", "ticks",
               "sim events", "queue peak", "virtual time", "events/s",
               "dropped"});
  const bool verify = flags.Has("verify-determinism");
  const std::string csv = flags.GetString("csv", "");
  if (int rc = RejectUnread(flags, "sim")) return rc;
  bool ok = true;
  for (const std::string& spec : topologies) {
    options.topology = spec;
    auto report_result = sim::RunScenario(config, load, options);
    if (!report_result.ok()) {
      return Fail(spec + ": " + report_result.status().ToString());
    }
    sim::ScenarioReport report = std::move(report_result).MoveValueUnsafe();
    if (verify) {
      auto second = sim::RunScenario(config, load, options);
      if (!second.ok()) return Fail(spec + ": " + second.status().ToString());
      std::string diff = sim::DescribeScenarioDiff(report, *second);
      if (!diff.empty()) {
        return Fail(spec + ": determinism check failed: " + diff);
      }
    }
    (void)table.AddRow({report.topology, FmtCount(report.num_locals),
                        FmtCount(report.events_ingested),
                        FmtCount(report.exact_windows),
                        FmtCount(report.degraded_windows),
                        FmtCount(report.counter("sim.ticks")),
                        FmtCount(report.counter("sim.events")),
                        FmtCount(report.event_queue_peak),
                        FmtF(report.virtual_time_us / 1000.0, 1) + " ms",
                        FmtRate(report.sim_throughput_eps),
                        FmtCount(report.counter("net.dropped"))});
    if (!report.Invariant()) {
      std::cerr << "demactl: " << spec << ": " << report.violation << "\n";
      ok = false;
    }
  }
  EmitTable(table, csv);
  if (!ok) return Fail("scenario invariant violated");
  std::cout << "every window exact or explicitly degraded on "
            << topologies.size() << " topolog"
            << (topologies.size() == 1 ? "y" : "ies");
  if (verify) std::cout << "; determinism check passed (seeded reruns identical)";
  std::cout << "\n";
  return 0;
}

int CmdCluster(const Flags& flags) {
  auto config_result = BuildConfig(flags);
  if (!config_result.ok()) return Fail(config_result.status().ToString());
  sim::SystemConfig config = *config_result;
  auto load_result = BuildWorkload(flags, config);
  if (!load_result.ok()) return Fail(load_result.status().ToString());
  const ObsFlags obs_flags(flags);
  const bool tcp = flags.Has("tcp");
  sim::TcpClusterFaultOptions cluster_opts;
  std::string host;
  uint16_t port = 0;
  if (tcp) {
    cluster_opts.session = SessionTuningFromFlags(flags);
    host = flags.GetString("host", "127.0.0.1");
    port = static_cast<uint16_t>(flags.GetInt("port", 0));
  }
  const bool json = flags.Has("json");
  const std::string csv = flags.GetString("csv", "");
  if (int rc = RejectUnread(flags, "cluster")) return rc;

  CommandObs command_obs(&config, obs_flags, /*enable_logger=*/!tcp);
  Result<sim::RunMetrics> metrics = tcp
      // One OS process per local node plus the root, TCP over loopback.
      ? sim::RunTcpClusterForked(config, *load_result, cluster_opts, host, port)
      // Same topology over the deterministic in-process fabric.
      : sim::RunSync(config, *load_result);
  if (!metrics.ok()) return Fail(metrics.status().ToString());
  PrintTcpMetrics(*metrics, json, csv);
  command_obs.Export();
  return 0;
}

int CmdShard(const Flags& flags) {
  auto sc_result = BuildShardedConfig(flags);
  if (!sc_result.ok()) return Fail(sc_result.status().ToString());
  shard::ShardedConfig sc = *sc_result;
  auto load_result = BuildKeyedWorkload(flags);
  if (!load_result.ok()) return Fail(load_result.status().ToString());
  const std::string csv = flags.GetString("csv", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  if (int rc = RejectUnread(flags, "shard")) return rc;

  // One registry for the service, the locals and the fabric, so the export
  // carries the per-type traffic next to the protocol counters.
  obs::Registry registry;
  sc.registry = &registry;
  net::Network::Options net_options;
  net_options.registry = &registry;
  shard::ShardedSimHarness harness(sc, net_options);
  if (!harness.init_status().ok()) {
    return Fail(harness.init_status().ToString());
  }
  Status st = harness.Run(*load_result);
  if (!st.ok()) return Fail(st.ToString());

  // Per-key final windows; a large universe only prints head and tail.
  std::vector<std::string> headers = {"key", "shard", "windows", "events"};
  for (double q : sc.quantiles) headers.push_back("q" + FmtF(q * 100, 0));
  Table table(headers);
  constexpr uint64_t kHeadTail = 8;
  for (net::KeyId key = 0; key < sc.num_keys; ++key) {
    if (sc.num_keys > 2 * kHeadTail && key == kHeadTail) {
      key = static_cast<net::KeyId>(sc.num_keys - kHeadTail);
      std::vector<std::string> gap(headers.size(), "...");
      (void)table.AddRow(gap);
    }
    const auto& outputs = harness.outputs_by_key()[key];
    std::vector<std::string> row = {
        std::to_string(key),
        std::to_string(shard::ShardOfKey(key, sc.num_shards)),
        FmtCount(outputs.size()),
        outputs.empty() ? "0" : FmtCount(outputs.back().global_size)};
    for (size_t i = 0; i < sc.quantiles.size(); ++i) {
      row.push_back(outputs.empty() || i >= outputs.back().values.size()
                        ? "-"
                        : FmtF(outputs.back().values[i], 2));
    }
    (void)table.AddRow(row);
  }
  EmitTable(table, csv);
  std::cout << "sharded sim: " << FmtCount(harness.events_ingested())
            << " events across " << sc.num_keys << " keys / " << sc.num_shards
            << " shards, " << FmtCount(harness.service()->windows_emitted())
            << " per-key windows emitted\n";
  if (!metrics_out.empty()) {
    st = obs::WriteObsFile(metrics_out, *harness.registry(), nullptr);
    if (!st.ok()) return Fail("metrics export failed: " + st.ToString());
    std::cerr << "demactl: metrics written to " << metrics_out << "\n";
  }
  return 0;
}

int CmdQuery(const Flags& flags) {
  auto root = ParseHostPort(flags.GetString("root", "127.0.0.1:7311"));
  if (!root.ok()) return Fail(root.status().ToString());

  shard::ShardQueryOptions opts;
  opts.root_host = root->first;
  opts.root_port = root->second;
  opts.id = static_cast<NodeId>(
      flags.GetInt("id", shard::kFirstQueryClientId));
  opts.keys = QueryKeys(flags, static_cast<uint64_t>(flags.GetInt("keys", 16)));
  if (opts.keys.empty()) return Fail("query needs --keys=K or --keys-list=...");
  opts.quantiles = flags.GetDoubleList("quantiles", {});
  for (double q : opts.quantiles) {
    if (!(q > 0.0) || q > 1.0) {
      return Fail("--quantiles: " + std::to_string(q) + " outside (0, 1]");
    }
  }
  opts.concurrency = static_cast<size_t>(flags.GetInt("concurrency", 4));
  opts.until_window =
      static_cast<net::WindowId>(flags.GetInt("until-window", 0));
  opts.shutdown_root = flags.Has("shutdown-root");
  opts.timeout_us =
      static_cast<DurationUs>(flags.GetInt("timeout-s", 60)) * kMicrosPerSecond;
  const std::string csv = flags.GetString("csv", "");
  if (int rc = RejectUnread(flags, "query")) return rc;

  auto report = shard::RunShardQueryClient(opts);
  if (!report.ok()) return Fail(report.status().ToString());

  // Merge the per-session final replies (keys are split round-robin across
  // sessions) back into one table in key order.
  std::map<net::KeyId, net::KeyedAnswer> answers;
  std::vector<double> quantiles;
  for (const net::KeyedQueryReply& reply : report->final_replies) {
    if (quantiles.empty()) quantiles = reply.quantiles;
    for (const net::KeyedAnswer& a : reply.answers) answers[a.key] = a;
  }
  std::vector<std::string> headers = {"key", "window", "events"};
  for (double q : quantiles) headers.push_back("q" + FmtF(q * 100, 0));
  Table table(headers);
  for (net::KeyId key : opts.keys) {
    auto it = answers.find(key);
    if (it == answers.end() || !it->second.found) {
      std::vector<std::string> row = {std::to_string(key), "-", "-"};
      row.resize(headers.size(), "-");
      (void)table.AddRow(row);
      continue;
    }
    const net::KeyedAnswer& a = it->second;
    std::vector<std::string> row = {std::to_string(key),
                                    std::to_string(a.window_id),
                                    FmtCount(a.global_size)};
    for (size_t i = 0; i < quantiles.size(); ++i) {
      row.push_back(i < a.values.size() ? FmtF(a.values[i], 2) : "-");
    }
    (void)table.AddRow(row);
  }
  EmitTable(table, csv);
  std::cout << report->keys_found << "/" << opts.keys.size()
            << " keys answered across " << opts.concurrency << " sessions ("
            << FmtCount(report->queries_sent) << " queries sent)\n";
  return report->keys_found == opts.keys.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string cmd =
      flags.positional().empty() ? "help" : flags.positional().front();
  if (cmd == "run") return CmdRun(flags);
  if (cmd == "compare") return CmdCompare(flags);
  if (cmd == "sustainable") return CmdSustainable(flags);
  if (cmd == "tree") return CmdTree(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "shard") return CmdShard(flags);
  if (cmd == "query") return CmdQuery(flags);
  if (cmd == "cluster") return CmdCluster(flags);
  if (cmd == "chaos") return CmdChaos(flags);
  if (cmd == "sim") return CmdSim(flags);
  std::cout
      << "usage: demactl "
         "<run|compare|sustainable|tree|serve|shard|query|cluster|chaos|sim> "
         "[flags]\n"
         "  run          run one system and print per-window results\n"
         "  compare      run every system on the same workload\n"
         "  sustainable  search the maximum sustainable throughput\n"
         "  serve        one TCP node: --role=root --listen=H:P | "
         "--role=local --id=I --root=H:P\n"
         "               add --shards=S --keys=K for the multi-tenant\n"
         "               service (root answers `demactl query` live;\n"
         "               --windows= horizon, --linger-s= query window);\n"
         "               --outbox-cap=N bounds per-connection send\n"
         "               queues (0 = unbounded; default 1024)\n"
         "  shard        in-process multi-tenant run: --shards= --keys=\n"
         "               --locals= --workers= --windows= --rate=\n"
         "               --metrics-out=PATH\n"
         "  query        concurrent queries against a sharded root:\n"
         "               --root=H:P --keys=K | --keys-list=a,b,c\n"
         "               --quantiles= --concurrency= --until-window=\n"
         "               --shutdown-root --timeout-s=\n"
         "  cluster      whole cluster on this machine; --tcp forks one\n"
         "               process per local node over loopback TCP, else\n"
         "               a deterministic in-process run\n"
         "  chaos        replay a seeded fault schedule and check every\n"
         "               window against an oracle; --fault-schedule=SPEC\n"
         "               (drop= dup= delay-us= corrupt= tamper-prob= seed=\n"
         "               strikes= crash=N@W+D partition=A-B@F..U\n"
         "               tamper=N@F..U), --corrupt-rate=P frame-flip\n"
         "               shorthand, --verify-determinism runs twice;\n"
         "               --conn-kill=N@F..U instead runs the forked TCP\n"
         "               cluster severing connections N times between the\n"
         "               F-th and U-th data frame (with --corrupt-rate=P,\n"
         "               --write-stall-after=N --write-stall-ms=MS) and\n"
         "               demands exact parity with a fault-free run\n"
         "  sim          tick-based discrete-event run over routed\n"
         "               topologies: --topology=SPEC[,SPEC...] with specs\n"
         "               flat star tree[:fanout=F] fat-tree[:k=K]\n"
         "               wan[:regions=R,wan-latency-us=L]; checks every\n"
         "               window against the exact oracle; optional\n"
         "               --fault-schedule=drop=,dup=,delay-us=,delay-prob=,\n"
         "               corrupt=,seed= (probabilistic subset only) and\n"
         "               --verify-determinism reruns each seeded scenario\n"
         "flags: --system= --locals= --windows= --rate= --gamma= --quantiles=\n"
         "       --dist= --scale-rates= --slide-ms= --adaptive --per-node-gamma\n"
         "       --naive-selection --csv= --metrics-out= --metrics-log-ms=\n"
         "       --heartbeat-ms= --heartbeat-misses= --auto-reconnect (TCP\n"
         "       session resilience: liveness probes, redial, frame replay)\n";
  return cmd == "help" ? 0 : 1;
}
