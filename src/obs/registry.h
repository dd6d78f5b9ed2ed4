#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dema::obs {

/// \brief Monotonically increasing counter (thread-safe, relaxed atomics).
///
/// The registry hands out stable pointers, so hot paths cache the pointer
/// once and pay a single relaxed fetch-add per increment.
///
/// A counter with one writer may use `IncrementSingleWriter` instead: a
/// relaxed load and a relaxed store, with no locked read-modify-write. The
/// rule: every add to that counter goes through `IncrementSingleWriter`,
/// made by one thread at a time, with each hand-over between threads
/// ordered by a happens-before edge (a join, a lock, a queue). Then no add
/// is lost, and `Value()` from any other thread reads a live value that
/// never goes backwards. Mixing it with `Increment`, or two threads adding
/// at once, can lose adds.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Adds \p n under the single-writer rule above.
  void IncrementSingleWriter(uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Last-value instrument that may go up and down (thread-safe).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Log2-bucketed histogram of non-negative integer samples
/// (latencies in microseconds, sizes in bytes).
///
/// Bucket b holds values whose bit width is b, i.e. [2^(b-1), 2^b - 1]
/// (bucket 0 holds the value 0), so 65 buckets cover all of uint64. Records
/// are lock-free relaxed increments; percentile queries interpolate linearly
/// inside the selected bucket, clamped by the exact observed min/max. The
/// estimate error per sample is bounded by the bucket width (a factor of 2),
/// which is plenty for the latency distributions the paper reports while
/// keeping the instrument O(1) memory and wait-free on the record path.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  void Record(uint64_t value);

  /// \brief Point-in-time digest of everything recorded so far.
  struct Summary {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  ///< exact
    uint64_t max = 0;  ///< exact
    double mean = 0;
    double p50 = 0;  ///< bucket-interpolated estimate
    double p95 = 0;
    double p99 = 0;
  };
  Summary Summarize() const;

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

  /// Bucket counts up to (and including) the highest non-empty bucket.
  std::vector<uint64_t> BucketCounts() const;

  /// Lower bound of bucket \p b (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLo(size_t b) { return b == 0 ? 0 : uint64_t{1} << (b - 1); }
  /// Inclusive upper bound of bucket \p b (0, 1, 3, 7, 15, ...).
  static uint64_t BucketHi(size_t b) {
    return b == 0 ? 0 : (uint64_t{1} << (b - 1)) + ((uint64_t{1} << (b - 1)) - 1);
  }

 private:
  /// p-th percentile estimate over a consistent snapshot of the buckets.
  static double PercentileFrom(const uint64_t* buckets, uint64_t count,
                               uint64_t min, uint64_t max, double p);

  std::atomic<uint64_t> buckets_[kNumBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// \brief Central instrument registry: every metric the system records lives
/// here under a unique name, so one JSON export covers node logic, transport
/// accounting, and run harness alike.
///
/// Names are free-form; the convention used throughout the repo is
/// `component.metric` with optional `{label=value}` suffixes for per-link or
/// per-node instances, e.g. `dema.windows`, `transport.sent.bytes{link=1->0}`,
/// `local.events_ingested{node=2}`.
///
/// Get* creates on first use and always returns the same stable pointer for a
/// name; Find* never creates. All methods are thread-safe; instrument
/// operations themselves are lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Current value of counter \p name; 0 when it was never created.
  uint64_t CounterValue(const std::string& name) const;
  /// Summary of histogram \p name; all zeroes when it was never created.
  Histogram::Summary HistogramSummary(const std::string& name) const;

  /// Snapshot of every counter's current value, keyed by name.
  std::map<std::string, uint64_t> CounterValues() const;
  /// Snapshot of every gauge's current value, keyed by name.
  std::map<std::string, int64_t> GaugeValues() const;
  /// Snapshot of every histogram's summary, keyed by name.
  std::map<std::string, Histogram::Summary> HistogramSummaries() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms carry count/sum/min/max/mean/p50/p95/p99 plus the raw log2
  /// bucket counts (see docs/OBSERVABILITY.md for the schema).
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  // unique_ptr values keep instrument addresses stable across rehashing.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dema::obs
