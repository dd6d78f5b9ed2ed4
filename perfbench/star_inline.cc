// star_inline: one root and four locals on the in-process fabric, driven by
// the benchmark's own single-threaded pump loop. Events are generated before
// the timed region; every iteration builds a fresh system, streams the same
// pre-generated windows through it, and checks each result against the
// exact oracle.

#include <algorithm>
#include <memory>

#include "bench.h"
#include "common/clock.h"
#include "net/network.h"
#include "obs/registry.h"
#include "sim/topology.h"
#include "star.h"

namespace dema::perfbench {

namespace {

/// Locals of the star_inline workload.
constexpr size_t kStarLocals = 4;

/// Span name of a message handled by the root or a local.
const char* RootSpanName(net::MessageType type) {
  switch (type) {
    case net::MessageType::kSynopsisBatch:
      return "root.synopsis";
    case net::MessageType::kCandidateReply:
      return "root.reply";
    default:
      return "root.other";
  }
}

const char* LocalSpanName(net::MessageType type) {
  return type == net::MessageType::kCandidateRequest ? "local.serve"
                                                     : "local.control";
}

/// The system under test of one iteration: fabric, root and locals.
struct StarSystem {
  RealClock clock;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<sim::RootNodeLogic> root;
  std::vector<std::unique_ptr<sim::LocalNodeLogic>> locals;
};

Status BuildStar(sim::SystemConfig config, SpanLog* log, StarSystem* sys) {
  sys->registry = std::make_unique<obs::Registry>();
  config.registry = sys->registry.get();
  net::Network::Options net_options;
  net_options.registry = sys->registry.get();
  sys->network = std::make_unique<net::Network>(&sys->clock, net_options);
  transport::Transport* transport = sys->network.get();
  if (log->enabled()) {
    sys->timed = std::make_unique<TimedTransport>(sys->network.get(), log);
    transport = sys->timed.get();
  }
  DEMA_RETURN_NOT_OK(sys->network->RegisterNode(0));
  DEMA_ASSIGN_OR_RETURN(sys->root,
                        sim::BuildRootLogic(config, transport, &sys->clock));
  for (NodeId id : sim::LocalIds(config)) {
    DEMA_RETURN_NOT_OK(sys->network->RegisterNode(id));
    DEMA_ASSIGN_OR_RETURN(
        auto local, sim::BuildLocalLogic(config, id, transport, &sys->clock));
    sys->locals.push_back(std::move(local));
  }
  return Status::OK();
}

/// Delivers queued messages (root first, then each local) until every
/// inbox is empty.
Status Pump(StarSystem* sys, SpanLog* log) {
  ScopedSpan pump(log, "net.pump");
  net::Channel* root_inbox = sys->network->Inbox(0);
  bool progress = true;
  while (progress) {
    progress = false;
    while (auto msg = root_inbox->TryPop()) {
      ScopedSpan span(log, RootSpanName(msg->type));
      DEMA_RETURN_NOT_OK(sys->root->OnMessage(*msg));
      progress = true;
    }
    for (size_t i = 0; i < sys->locals.size(); ++i) {
      net::Channel* inbox = sys->network->Inbox(static_cast<NodeId>(i + 1));
      while (auto msg = inbox->TryPop()) {
        ScopedSpan span(log, LocalSpanName(msg->type));
        DEMA_RETURN_NOT_OK(sys->locals[i]->OnMessage(*msg));
        progress = true;
      }
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t SumCounter(const std::map<std::string, uint64_t>& counters,
                    const std::string& name) {
  uint64_t sum = 0;
  for (const auto& [key, value] : counters) {
    if (key == name || key.rfind(name + "{", 0) == 0) sum += value;
  }
  return sum;
}

std::vector<double> Latencies(const std::vector<sim::WindowOutput>& outputs) {
  std::vector<double> latency_us;
  for (const auto& out : outputs) {
    latency_us.push_back(static_cast<double>(out.latency_us));
  }
  return latency_us;
}

sim::SystemConfig StarConfig(size_t locals) {
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = locals;
  config.gamma = 2'000;
  config.adaptive_gamma = true;
  config.quantiles = {0.5, 0.99};
  return config;
}

Result<StarInput> PregenerateStar(size_t locals, uint64_t windows,
                                  uint64_t seed,
                                  const std::vector<double>& quantiles) {
  StarInput input;
  input.workload = sim::MakeUniformWorkload(
      locals, windows, kStarEventRate, SensorDistribution(), {}, SeedBase(seed));
  input.events.assign(locals, {});
  const int64_t start = NowNs();
  for (size_t i = 0; i < locals; ++i) {
    DEMA_ASSIGN_OR_RETURN(
        auto gen, gen::StreamGenerator::Create(input.workload.generators[i]));
    for (uint64_t w = 0; w < windows; ++w) {
      input.events[i].push_back(gen->GenerateWindow(
          static_cast<TimestampUs>(w) * input.workload.window_len_us,
          input.workload.window_len_us));
      input.gen_events += input.events[i].back().size();
    }
  }
  input.gen_seconds = SecondsSince(start);

  for (uint64_t w = 0; w < windows; ++w) {
    std::vector<double> values;
    for (size_t i = 0; i < locals; ++i) {
      for (const Event& e : input.events[i][w]) values.push_back(e.value);
    }
    input.window_sizes.push_back(values.size());
    input.oracle.push_back(ExactQuantiles(std::move(values), quantiles));
  }
  return input;
}

Status RunStarOnce(const sim::SystemConfig& config, const StarInput& input,
                   uint64_t trace_base, SpanLog* log, StarIteration* it) {
  const uint64_t windows = input.workload.num_windows;
  const DurationUs len = input.workload.window_len_us;
  const int64_t begin = NowNs();
  StarSystem sys;
  {
    ScopedSpan span(log, "bench.setup");
    DEMA_RETURN_NOT_OK(BuildStar(config, log, &sys));
    sys.root->SetResultCallback(
        [it](const sim::WindowOutput& out) { it->outputs.push_back(out); });
  }
  it->setup_s = SecondsSince(begin);

  const int64_t run_start = NowNs();
  for (uint64_t w = 0; w < windows; ++w) {
    log->set_trace_id(trace_base + w);
    for (size_t i = 0; i < sys.locals.size(); ++i) {
      ScopedSpan span(log, "local.ingest");
      for (const Event& e : input.events[i][w]) {
        DEMA_RETURN_NOT_OK(sys.locals[i]->OnEvent(e));
      }
      it->events += input.events[i][w].size();
    }
    const TimestampUs end = static_cast<TimestampUs>(w + 1) * len;
    for (auto& local : sys.locals) {
      ScopedSpan span(log, "local.close");
      DEMA_RETURN_NOT_OK(local->OnWatermark(end));
      DEMA_RETURN_NOT_OK(local->Quiesce());
    }
    DEMA_RETURN_NOT_OK(Pump(&sys, log));
  }
  const TimestampUs final_ts = static_cast<TimestampUs>(windows) * len;
  for (auto& local : sys.locals) {
    ScopedSpan span(log, "local.close");
    DEMA_RETURN_NOT_OK(local->OnFinish(final_ts));
  }
  DEMA_RETURN_NOT_OK(Pump(&sys, log));
  it->run_s = SecondsSince(run_start);

  if (!sys.root->idle()) {
    return Status::Internal("root still has pending windows after the run");
  }
  it->wire_bytes = sys.network->TotalStats().counters.bytes;
  it->instruments =
      ReadInstruments(*sys.registry, sys.network->StatsByType());
  {
    ScopedSpan span(log, "bench.teardown");
    sys.locals.clear();
    sys.root.reset();
    sys.timed.reset();
    sys.network.reset();
  }
  it->wall_s = SecondsSince(begin);
  return Status::OK();
}

Instruments ReadInstruments(
    const obs::Registry& registry,
    std::map<net::MessageType, net::TrafficCounters> by_type) {
  Instruments in;
  in.by_type = std::move(by_type);
  in.counters = registry.CounterValues();
  for (const auto& [name, summary] : registry.HistogramSummaries()) {
    if (name.rfind("root.select_us", 0) == 0) {
      in.select_us += static_cast<double>(summary.sum);
    }
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (name.rfind("local.retained_events_peak", 0) == 0) {
      in.retained_events_peak = std::max(in.retained_events_peak, value);
    }
  }
  return in;
}

void LayerTotals::Add(const Instruments& in, double iteration_wall_s,
                      uint64_t iteration_windows, uint64_t iteration_events) {
  wall_s += iteration_wall_s;
  windows += iteration_windows;
  events += iteration_events;
  for (const auto& [type, c] : in.by_type) sum.by_type[type].bytes += c.bytes;
  for (const auto& [name, value] : in.counters) sum.counters[name] += value;
  sum.select_us += in.select_us;
  sum.retained_events_peak =
      std::max(sum.retained_events_peak, in.retained_events_peak);
}

void AddInstrumentLayers(const LayerTotals& totals, bool keyed, Report* report) {
  const auto& counters = totals.sum.counters;
  const double candidate_events = SumCounter(counters, "dema.candidate_events");
  const double global_events = SumCounter(counters, "dema.global_events");
  const double candidate_slices = SumCounter(counters, "dema.candidate_slices");
  const double synopsis_slices = SumCounter(counters, "dema.synopsis_slices");
  report->SetLayer("dema.candidate_event_ratio",
                   global_events > 0 ? candidate_events / global_events : 0);
  report->SetLayer("dema.candidate_slice_ratio",
                   synopsis_slices > 0 ? candidate_slices / synopsis_slices : 0);
  report->SetLayer(
      "dema.gamma_updates",
      totals.PerWindow(SumCounter(counters, "dema.gamma_updates_sent")));
  report->SetLayer("root.select_us", totals.PerWindow(totals.sum.select_us));
  report->SetLayer("local.retained_events_peak",
                   static_cast<double>(totals.sum.retained_events_peak));

  using T = net::MessageType;
  const std::pair<const char*, T> kinds[] = {
      {"net.bytes.synopsis", keyed ? T::kShardSynopsisBatch : T::kSynopsisBatch},
      {"net.bytes.request",
       keyed ? T::kShardCandidateRequest : T::kCandidateRequest},
      {"net.bytes.reply", keyed ? T::kShardCandidateReply : T::kCandidateReply},
      {"net.bytes.gamma", keyed ? T::kShardGammaUpdate : T::kGammaUpdate},
  };
  for (const auto& [name, type] : kinds) {
    auto it = totals.sum.by_type.find(type);
    const double bytes =
        it == totals.sum.by_type.end() ? 0 : static_cast<double>(it->second.bytes);
    report->SetLayer(name,
                     totals.events > 0 ? bytes / static_cast<double>(totals.events)
                                       : 0);
  }
}

Status RunStarInline(const Options& options, Report* report) {
  const sim::SystemConfig config = StarConfig(kStarLocals);
  DEMA_ASSIGN_OR_RETURN(
      StarInput input,
      PregenerateStar(kStarLocals, kStarWindows, options.seed, config.quantiles));
  report->SetLayer("gen.events_per_s",
                   static_cast<double>(input.gen_events) / input.gen_seconds);

  SpanLog& log = *report->AddSpanLog(/*tid=*/1);
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
    log.set_enabled(traced);
    StarIteration it;
    DEMA_RETURN_NOT_OK(
        RunStarOnce(config, input, iteration * kStarWindows, &log, &it));
    CheckOutputs(it.outputs, input.window_sizes, input.oracle, "star_inline",
                 report);
    if (!traced) {
      report->setup_s.push_back(it.setup_s);
      report->wire_bytes += it.wire_bytes;
      report->AddIteration(it.events, it.run_s, Latencies(it.outputs));
      continue;
    }
    report->traced_events_per_s.push_back(static_cast<double>(it.events) /
                                          it.run_s);
    totals.Add(it.instruments, it.wall_s, kStarWindows, it.events);
  }
  if (!options.trace) return Status::OK();

  const auto self = log.SelfTimes();
  auto self_time = [&](const char* name) -> const SpanLog::SelfTime& {
    static const SpanLog::SelfTime kNone;
    auto it = self.find(name);
    return it == self.end() ? kNone : it->second;
  };
  auto self_us = [&](const char* name) {
    return totals.PerWindow(self_time(name).self_us);
  };
  report->SetLayer("local.ingest_us", self_us("local.ingest"));
  report->SetLayer("local.close_us", self_us("local.close"));
  report->SetLayer("local.serve_us", self_us("local.serve"));
  report->SetLayer("root.synopsis_us", self_us("root.synopsis"));
  report->SetLayer("root.reply_us", self_us("root.reply"));
  report->SetLayer("net.send_us", self_us("net.send"));
  report->SetLayer(
      "net.sends",
      totals.PerWindow(static_cast<double>(self_time("net.send").count)));
  report->SetLayer("net.pump_us", self_us("net.pump"));
  AddInstrumentLayers(totals, /*keyed=*/false, report);
  report->SetLayer("trace.uncovered_share",
                   1.0 - log.TopLevelUs() / (totals.wall_s * 1e6));
  return Status::OK();
}

}  // namespace dema::perfbench
