#pragma once

// Shared pieces of the repository benchmark: run options, the span log the
// traced mode records into, the timing transport decorator, and the report
// every workload fills in. See perfbench/README.md for the metric
// definitions.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "gen/distribution.h"
#include "sim/node.h"
#include "transport/transport.h"

namespace dema::perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since \p start_ns.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// The sensor-walk value process every workload draws from (the DEBS-like
/// distribution the paper's experiments use).
gen::DistributionParams SensorDistribution();

/// Generator seed base for a benchmark seed: every workload derives all of
/// its per-node (and per-key) seeds from this value.
inline uint64_t SeedBase(uint64_t seed) { return 1000 + seed * 104'729; }

/// \brief In-memory span recorder for one thread.
///
/// A span has a name, start, end, the span that was open when it began
/// (its parent) and the trace id of the window it belongs to. Disabled logs
/// record nothing and cost one branch per call. Spans stay in memory until
/// `report.cc` writes them out when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t trace_id = 0;
  };

  explicit SpanLog(uint32_t tid) : tid_(tid) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  /// Trace id stamped on spans begun from now on.
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when disabled (or the log is full).
  int32_t Begin(const char* name);
  /// Closes the span \p index returned by `Begin` (no-op for -1).
  void End(int32_t index);

  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Per span name: summed self time (duration minus the part covered by
  /// direct children) in microseconds, and the number of spans.
  struct SelfTime {
    double self_us = 0;
    uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Summed duration of the top-level spans (no parent), in microseconds.
  double TopLevelUs() const;

 private:
  static constexpr size_t kMaxSpans = 4'000'000;
  uint32_t tid_;
  bool enabled_ = false;
  uint64_t trace_id_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span on a `SpanLog`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// \brief `transport::Transport` decorator that records a `net.send` span
/// around every `Send` of the wrapped transport (single-threaded use).
class TimedTransport final : public transport::Transport {
 public:
  TimedTransport(transport::Transport* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  Status Send(net::Message m) override {
    ScopedSpan span(log_, "net.send");
    return inner_->Send(std::move(m));
  }
  net::Channel* Inbox(NodeId id) override { return inner_->Inbox(id); }
  transport::LinkTrafficMap LinkTraffic() const override {
    return inner_->LinkTraffic();
  }
  std::map<net::MessageType, net::TrafficCounters> TrafficByType()
      const override {
    return inner_->TrafficByType();
  }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  transport::Transport* inner_;
  SpanLog* log_;
};

/// Windows a block of untraced iterations holds at least, so that its p95
/// latency has ten samples beyond it.
inline constexpr size_t kBlockWindows = 200;

/// What one untraced iteration measured.
struct IterationSample {
  uint64_t events = 0;
  double run_s = 0;
  /// Exact per-window latencies in microseconds.
  std::vector<double> latency_us;
};

/// Consecutive kept iterations holding at least `kBlockWindows` windows.
/// An iteration is kept when its events/s is at least the median over the
/// run's untraced iterations: on a shared machine, an iteration that ran
/// slower than that lost CPU to the host, and its windows waited on the host
/// rather than on the program. The end-to-end figures are medians over
/// blocks, so a few slow seconds move them less than pooled figures.
struct Block {
  uint64_t events = 0;
  double timed_s = 0;
  /// Exact per-window latencies in microseconds.
  std::vector<double> latency_us;
};

/// Everything one workload run measured; `report.cc` turns it into the
/// printed metrics.
struct Report {
  std::string workload;
  uint64_t seed = 0;

  // --- end to end (untraced iterations only) ---
  /// Events ingested / timed-region seconds, one sample per iteration.
  std::vector<double> events_per_s;
  std::vector<IterationSample> iterations;
  /// Set-up seconds, one sample per set-up.
  std::vector<double> setup_s;
  uint64_t wire_bytes = 0;
  uint64_t events = 0;

  // --- correctness ---
  uint64_t windows_expected = 0;
  uint64_t windows_wrong = 0;
  uint64_t windows_degraded = 0;
  uint64_t windows_missing = 0;
  uint64_t queries_attempted = 0;
  uint64_t queries_failed = 0;
  /// First correctness violation, for the log.
  std::string first_error;

  // --- keyed_100k queries (untraced iterations) ---
  std::vector<double> query_latency_us;
  uint64_t queries_done = 0;
  double query_seconds = 0;

  // --- traced mode ---
  /// Events/s of traced iterations (the untraced ones are `events_per_s`).
  std::vector<double> traced_events_per_s;
  /// Layer metrics by name; the units are listed in `report.cc`.
  std::map<std::string, double> layer;
  /// Span logs of the traced iterations, written out when the run ends.
  std::vector<std::unique_ptr<SpanLog>> span_logs;

  /// Notes a correctness failure.
  void Fail(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
  void SetLayer(const std::string& name, double value) { layer[name] = value; }
  /// Records one untraced iteration: its events/s sample, and its events,
  /// timed seconds and window latencies for the blocks.
  void AddIteration(uint64_t iteration_events, double run_s,
                    const std::vector<double>& latency_us);
  /// A new span log owned by the report.
  SpanLog* AddSpanLog(uint32_t tid) {
    span_logs.push_back(std::make_unique<SpanLog>(tid));
    return span_logs.back().get();
  }
};

/// Checks the windows one root (or one key) emitted against exact answers:
/// window id w must have global size `sizes[w]` and quantile values
/// `values[w]`, for every w below `sizes.size()`. Counts wrong, degraded
/// and missing windows into \p report.
void CheckOutputs(const std::vector<sim::WindowOutput>& outputs,
                  std::span<const uint64_t> sizes,
                  std::span<const std::vector<double>> values,
                  const std::string& where, Report* report);

/// Exact quantile values of \p values for each of \p quantiles.
std::vector<double> ExactQuantiles(std::vector<double> values,
                                   const std::vector<double>& quantiles);

/// Nearest-rank percentile (0 < p <= 1) of \p sorted (ascending).
double Percentile(const std::vector<double>& sorted, double p);
/// Median of \p values (0 when empty).
double Median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double PeakRssMiB();

/// Prints every metric by name with its unit, writes the span file of a
/// traced run, and prints the JSON result line last. Returns the exit code:
/// 0 only when every output was correct.
int EmitReport(const Options& options, Report* report);

// Workloads. Each runs for `options.seconds`, fills \p report, and returns a
// non-OK status only when the run could not execute at all.
Status RunStarInline(const Options& options, Report* report);
Status RunTcpLoopback(const Options& options, Report* report);
Status RunKeyed(const Options& options, Report* report);

}  // namespace dema::perfbench
