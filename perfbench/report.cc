// Span log, oracle helpers, and the printed report: one human-readable line
// per metric, then the JSON result line.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench.h"
#include "stream/quantile.h"

namespace dema::perfbench {

gen::DistributionParams SensorDistribution() {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 10'000;
  dist.stddev = 25;
  dist.kick_prob = 0.001;
  return dist;
}

int32_t SpanLog::Begin(const char* name) {
  if (!enabled_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.trace_id = trace_id_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanLog::SelfTime> SpanLog::SelfTimes() const {
  std::vector<double> self_us(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_us[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self_us[static_cast<size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& t = out[spans_[i].name];
    t.self_us += self_us[i];
    ++t.count;
  }
  return out;
}

double SpanLog::TopLevelUs() const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) sum += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  return sum;
}

std::vector<double> ExactQuantiles(std::vector<double> values,
                                   const std::vector<double>& quantiles) {
  std::vector<double> out;
  for (double q : quantiles) {
    auto v = stream::ExactQuantileValues(values, q);
    out.push_back(v.ok() ? *v : std::nan(""));
  }
  return out;
}

void CheckOutputs(const std::vector<sim::WindowOutput>& outputs,
                  std::span<const uint64_t> sizes,
                  std::span<const std::vector<double>> values,
                  const std::string& where, Report* report) {
  const uint64_t windows = sizes.size();
  std::vector<bool> seen(windows, false);
  report->windows_expected += windows;
  for (const sim::WindowOutput& out : outputs) {
    auto fail = [&](uint64_t* count, const std::string& what) {
      ++*count;
      report->Fail(where + " window " + std::to_string(out.window_id) + " " +
                   what);
    };
    if (out.window_id >= windows || seen[out.window_id]) {
      fail(&report->windows_wrong, "unexpected");
      continue;
    }
    seen[out.window_id] = true;
    if (out.degraded) {
      fail(&report->windows_degraded, "degraded: " + out.degrade_cause);
    } else if (out.global_size != sizes[out.window_id] ||
               out.values != values[out.window_id]) {
      fail(&report->windows_wrong, "differs from the exact oracle");
    }
  }
  const auto found =
      static_cast<uint64_t>(std::count(seen.begin(), seen.end(), true));
  if (found < windows) {
    report->windows_missing += windows - found;
    report->Fail(where + ": " + std::to_string(windows - found) +
                 " windows missing");
  }
}

void Report::AddIteration(uint64_t iteration_events, double run_s,
                          const std::vector<double>& latency_us) {
  events_per_s.push_back(static_cast<double>(iteration_events) / run_s);
  events += iteration_events;
  iterations.push_back({iteration_events, run_s, latency_us});
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const uint64_t rank = stream::QuantileRank(p, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// The JSON metric sets, in the order `BENCHMARK.json` lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"events_per_s", "events/s"},
    {"bytes_per_event", "B/event"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"gen.events_per_s", "events/s"},
    {"local.ingest_us", "us/window"},
    {"local.close_us", "us/window"},
    {"local.serve_us", "us/window"},
    {"local.retained_events_peak", "events"},
    {"root.synopsis_us", "us/window"},
    {"root.reply_us", "us/window"},
    {"root.select_us", "us/window"},
    {"dema.candidate_event_ratio", "share"},
    {"dema.candidate_slice_ratio", "share"},
    {"dema.gamma_updates", "1/window"},
    {"net.send_us", "us/window"},
    {"net.sends", "1/window"},
    {"net.pump_us", "us/window"},
    {"net.bytes.synopsis", "B/event"},
    {"net.bytes.request", "B/event"},
    {"net.bytes.reply", "B/event"},
    {"net.bytes.gamma", "B/event"},
    {"transport.acks", "1/window"},
    {"transport.heartbeats", "1/window"},
    {"transport.outbox_full", "1/window"},
    {"transport.replayed_frames", "1/window"},
    {"tcp.listen_s", "s"},
    {"tcp.root_wall_s", "s"},
    {"tcp.local_wall_s", "s"},
    {"exec.task_run_us", "us/window"},
    {"exec.queue_depth_max", "tasks"},
    {"exec.queue_full_blocks", "1/window"},
    {"shard.build_s", "s"},
    {"shard.run_s", "s"},
    {"shard.frames_per_window", "1/window"},
    {"shard.query_us", "us"},
    {"window_latency_p50_ms", "ms"},
    {"window_latency_p95_ms", "ms"},
    {"queries_per_s", "queries/s"},
    {"query_latency_p50_us", "us"},
    {"query_latency_p99_us", "us"},
    {"inexact_window_ratio", "share"},
    {"trace.uncovered_share", "share"},
    {"trace.overhead", "share"},
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// "N samples, quartiles [q1, q3]" of per-iteration samples.
std::string Spread(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return std::to_string(samples.size()) + " samples, quartiles [" +
         Number(Percentile(samples, 0.25)) + ", " +
         Number(Percentile(samples, 0.75)) + "]";
}

/// A percentile of \p samples is printable only with ten samples beyond it.
bool Supported(size_t n, double p) {
  return n > 0 && n - stream::QuantileRank(p, n) >= 10;
}

/// Groups the iterations that ran at \p min_events_per_s or faster, in run
/// order, into blocks of at least `kBlockWindows` windows. A trailing block
/// too small for its own p95 joins the one before it.
std::vector<Block> MakeBlocks(const std::vector<IterationSample>& iterations,
                              double min_events_per_s) {
  std::vector<Block> blocks;
  for (const IterationSample& it : iterations) {
    if (static_cast<double>(it.events) / it.run_s < min_events_per_s) continue;
    if (blocks.empty() || blocks.back().latency_us.size() >= kBlockWindows) {
      blocks.emplace_back();
    }
    Block& block = blocks.back();
    block.events += it.events;
    block.timed_s += it.run_s;
    block.latency_us.insert(block.latency_us.end(), it.latency_us.begin(),
                            it.latency_us.end());
  }
  if (blocks.size() > 1 && blocks.back().latency_us.size() < kBlockWindows) {
    Block last = std::move(blocks.back());
    blocks.pop_back();
    blocks.back().events += last.events;
    blocks.back().timed_s += last.timed_s;
    blocks.back().latency_us.insert(blocks.back().latency_us.end(),
                                    last.latency_us.begin(),
                                    last.latency_us.end());
  }
  for (Block& block : blocks) {
    std::sort(block.latency_us.begin(), block.latency_us.end());
  }
  return blocks;
}

/// Medians over \p blocks of their events/s, p50 and p95 latency (ms).
struct BlockMedians {
  double events_per_s = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  size_t windows = 0;
  /// Windows in the smallest block.
  size_t fewest = 0;
};

BlockMedians MedianOverBlocks(const std::vector<Block>& blocks) {
  std::vector<double> eps, p50, p95;
  BlockMedians out;
  out.fewest = blocks.empty() ? 0 : SIZE_MAX;
  for (const Block& block : blocks) {
    eps.push_back(static_cast<double>(block.events) / block.timed_s);
    p50.push_back(Percentile(block.latency_us, 0.5) / 1e3);
    p95.push_back(Percentile(block.latency_us, 0.95) / 1e3);
    out.windows += block.latency_us.size();
    out.fewest = std::min(out.fewest, block.latency_us.size());
  }
  out.events_per_s = Median(eps);
  out.p50_ms = Median(p50);
  out.p95_ms = Median(p95);
  return out;
}

/// Directory the traced run writes its span file into, relative to the
/// working directory (the checkout root).
constexpr char kSpanDir[] = ".bench_out";

Status WriteTrace(const Report& report, std::string* path) {
  ::mkdir(kSpanDir, 0755);
  *path = std::string(kSpanDir) + "/" + report.workload + "-seed" +
          std::to_string(report.seed) + ".trace.json";
  std::ofstream out(*path, std::ios::trunc);
  int64_t origin = INT64_MAX;
  for (const auto& log : report.span_logs) {
    for (const auto& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& log : report.span_logs) {
    const auto& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << log->tid()
          << ",\"ts\":" << Number(static_cast<double>(s.start_ns - origin) / 1e3)
          << ",\"dur\":" << Number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"trace_id\":" << s.trace_id << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  out.flush();
  if (!out) return Status::Internal("cannot write " + *path);
  return Status::OK();
}

}  // namespace

int EmitReport(const Options& options, Report* report) {
  std::map<std::string, double> metrics;
  bool printable = true;

  const double min_events_per_s = Median(report->events_per_s);
  const std::vector<Block> blocks =
      MakeBlocks(report->iterations, min_events_per_s);
  const BlockMedians kept = MedianOverBlocks(blocks);
  // The same figures over every iteration, printed for comparison only.
  const BlockMedians all = MedianOverBlocks(MakeBlocks(report->iterations, 0));
  size_t kept_iterations = 0;
  for (double eps : report->events_per_s) {
    if (eps >= min_events_per_s) ++kept_iterations;
  }
  std::cout << "workload " << report->workload << " seed " << report->seed
            << (options.trace ? " (traced)" : "") << "\n";
  std::cout << "kept " << kept_iterations << " of "
            << report->events_per_s.size()
            << " iterations, those at or above the median iteration rate "
            << Number(min_events_per_s) << " events/s\n";
  metrics["events_per_s"] = kept.events_per_s;
  std::cout << "events_per_s " << Number(metrics["events_per_s"])
            << " events/s (median over " << blocks.size()
            << " blocks of events / timed s; over all iterations "
            << Number(all.events_per_s) << "; per iteration "
            << Spread(report->events_per_s) << ")\n";
  if (blocks.empty() || !Supported(kept.fewest, 0.95)) {
    printable = false;
    std::cout << "window latency percentiles refused: a block of "
              << kept.fewest << " windows leaves fewer than 10 beyond p95\n";
  } else {
    metrics["window_latency_p50_ms"] = kept.p50_ms;
    metrics["window_latency_p95_ms"] = kept.p95_ms;
    report->SetLayer("window_latency_p50_ms", kept.p50_ms);
    report->SetLayer("window_latency_p95_ms", kept.p95_ms);
    for (const auto& [name, over_all] :
         {std::pair<const char*, double>{"window_latency_p50_ms", all.p50_ms},
          {"window_latency_p95_ms", all.p95_ms}}) {
      std::cout << name << " " << Number(metrics[name]) << " ms (median over "
                << blocks.size() << " blocks of >= " << kept.fewest
                << " windows, exact nearest-rank per block; " << kept.windows
                << " windows; over all iterations " << Number(over_all)
                << ")\n";
    }
  }
  metrics["bytes_per_event"] =
      report->events > 0 ? static_cast<double>(report->wire_bytes) /
                               static_cast<double>(report->events)
                         : 0;
  std::cout << "bytes_per_event " << Number(metrics["bytes_per_event"])
            << " B/event (" << report->wire_bytes << " B / " << report->events
            << " events)\n";
  const uint64_t inexact =
      report->windows_wrong + report->windows_degraded + report->windows_missing;
  const double inexact_ratio =
      report->windows_expected > 0
          ? static_cast<double>(inexact) /
                static_cast<double>(report->windows_expected)
          : 1;
  report->SetLayer("inexact_window_ratio", inexact_ratio);
  std::cout << "inexact_window_ratio " << Number(inexact_ratio) << " share ("
            << report->windows_wrong << " wrong + " << report->windows_degraded
            << " degraded + " << report->windows_missing << " missing of "
            << report->windows_expected << " windows)\n";
  metrics["setup_s"] = Median(report->setup_s);
  std::cout << "setup_s " << Number(metrics["setup_s"]) << " s ("
            << Spread(report->setup_s) << ")\n";
  metrics["peak_rss_mb"] = PeakRssMiB();
  std::cout << "peak_rss_mb " << Number(metrics["peak_rss_mb"]) << " MiB\n";

  if (report->queries_attempted > 0) {
    std::vector<double> q = report->query_latency_us;
    std::sort(q.begin(), q.end());
    const double qps =
        report->query_seconds > 0
            ? static_cast<double>(report->queries_done) / report->query_seconds
            : 0;
    report->SetLayer("queries_per_s", qps);
    std::cout << "queries_per_s " << Number(qps) << " queries/s ("
              << report->queries_failed << " failed of "
              << report->queries_attempted << ")\n";
    for (const auto& [name, p] : {std::pair<const char*, double>{
                                      "query_latency_p50_us", 0.5},
                                  {"query_latency_p99_us", 0.99}}) {
      if (!Supported(q.size(), p)) {
        printable = false;
        std::cout << name << " refused: " << q.size()
                  << " samples leave fewer than 10 beyond it\n";
        continue;
      }
      report->SetLayer(name, Percentile(q, p));
      std::cout << name << " " << Number(Percentile(q, p)) << " us (n="
                << q.size() << ", beyond=" << q.size() - stream::QuantileRank(p, q.size())
                << ")\n";
    }
  }

  if (options.trace) {
    const double untraced = Median(report->events_per_s);
    const double traced = Median(report->traced_events_per_s);
    report->SetLayer("trace.overhead", traced > 0 ? untraced / traced - 1 : 0);
    std::string path;
    Status st = WriteTrace(*report, &path);
    if (!st.ok()) {
      std::cerr << st << "\n";
      printable = false;
    } else {
      uint64_t dropped = 0;
      for (const auto& log : report->span_logs) dropped += log->dropped();
      std::cout << "spans written to " << path;
      if (dropped > 0) std::cout << " (" << dropped << " spans past the cap dropped)";
      std::cout << "\n";
    }
    for (const MetricSpec& spec : kPerLayer) {
      auto it = report->layer.find(spec.name);
      std::cout << spec.name << " "
                << (it == report->layer.end() ? "n/a (layer bypassed)"
                                              : Number(it->second))
                << " " << spec.unit << "\n";
    }
  }

  for (const auto& [name, value] : report->layer) {
    const bool listed =
        std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                    [&](const MetricSpec& spec) { return name == spec.name; });
    if (!listed) {
      std::cerr << "layer metric " << name << " is not in the metric list\n";
      printable = false;
    }
  }

  const uint64_t failed = inexact + report->queries_failed;
  const uint64_t attempted = report->windows_expected + report->queries_attempted;
  bool correct = printable && failed == 0 && report->first_error.empty();
  if (!report->first_error.empty()) {
    std::cout << "FAILED: " << report->first_error << "\n";
  }

  std::string json = "{\"correct\": ";
  std::string fields;
  auto add = [&](const MetricSpec& spec, double value) {
    if (!std::isfinite(value)) {
      correct = false;
      value = 0;
    }
    fields += std::string(fields.empty() ? "" : ", ") + "\"" + spec.name +
              "\": {\"value\": " + Number(value) + ", \"unit\": \"" +
              spec.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      auto it = report->layer.find(spec.name);
      add(spec, it == report->layer.end() ? 0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) add(spec, metrics[spec.name]);
  }
  json += std::string(correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1)) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
          fields + "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

}  // namespace dema::perfbench
