#include "obs/registry.h"

#include <algorithm>

#include "common/json.h"

namespace dema::obs {

namespace {

size_t BucketIndex(uint64_t value) {
  // bit_width(0) == 0, so the value 0 lands in bucket 0 and every other
  // value v in bucket bit_width(v) — exactly the [2^(b-1), 2^b) split.
  return static_cast<size_t>(std::bit_width(value));
}

void AtomicMin(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (value < cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

double Histogram::PercentileFrom(const uint64_t* buckets, uint64_t count,
                                 uint64_t min, uint64_t max, double p) {
  if (count == 0) return 0;
  // Rank of the requested percentile, 1-based nearest-rank.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count) + 0.5);
  rank = std::clamp<uint64_t>(rank, 1, count);
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= rank) {
      // Interpolate linearly within the bucket, then clamp to the exact
      // observed range so single-sample and extreme buckets stay truthful.
      double lo = static_cast<double>(BucketLo(b));
      double hi = static_cast<double>(BucketHi(b));
      double frac =
          static_cast<double>(rank - seen) / static_cast<double>(buckets[b]);
      double est = lo + (hi - lo) * frac;
      return std::clamp(est, static_cast<double>(min), static_cast<double>(max));
    }
    seen += buckets[b];
  }
  return static_cast<double>(max);
}

Histogram::Summary Histogram::Summarize() const {
  Summary s;
  uint64_t buckets[kNumBuckets];
  for (size_t b = 0; b < kNumBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  // Recompute count from the bucket snapshot so percentiles are internally
  // consistent even if records race with this read.
  for (size_t b = 0; b < kNumBuckets; ++b) s.count += buckets[b];
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.mean = static_cast<double>(s.sum) / static_cast<double>(s.count);
  s.p50 = PercentileFrom(buckets, s.count, s.min, s.max, 0.50);
  s.p95 = PercentileFrom(buckets, s.count, s.min, s.max, 0.95);
  s.p99 = PercentileFrom(buckets, s.count, s.min, s.max, 0.99);
  return s;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(kNumBuckets);
  size_t highest = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
    if (out[b] != 0) highest = b;
  }
  out.resize(highest + 1);
  return out;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

const Counter* Registry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

uint64_t Registry::CounterValue(const std::string& name) const {
  const Counter* c = FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

Histogram::Summary Registry::HistogramSummary(const std::string& name) const {
  const Histogram* h = FindHistogram(name);
  return h == nullptr ? Histogram::Summary{} : h->Summarize();
}

std::map<std::string, uint64_t> Registry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->Value();
  return out;
}

std::map<std::string, int64_t> Registry::GaugeValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> out;
  for (const auto& [name, g] : gauges_) out[name] = g->Value();
  return out;
}

std::map<std::string, Histogram::Summary> Registry::HistogramSummaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Histogram::Summary> out;
  for (const auto& [name, h] : histograms_) out[name] = h->Summarize();
  return out;
}

std::string Registry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter counters;
  for (const auto& [name, c] : counters_) counters.Field(name, c->Value());
  JsonWriter gauges;
  for (const auto& [name, g] : gauges_) gauges.Field(name, g->Value());
  JsonWriter hists;
  for (const auto& [name, h] : histograms_) {
    Histogram::Summary s = h->Summarize();
    JsonWriter hw;
    hw.Field("count", s.count);
    hw.Field("sum", s.sum);
    hw.Field("min", s.min);
    hw.Field("max", s.max);
    hw.Field("mean", s.mean);
    hw.Field("p50", s.p50);
    hw.Field("p95", s.p95);
    hw.Field("p99", s.p99);
    std::string buckets = "[";
    bool first = true;
    for (uint64_t b : h->BucketCounts()) {
      if (!first) buckets += ',';
      first = false;
      buckets += std::to_string(b);
    }
    buckets += ']';
    hw.RawField("log2_buckets", buckets);
    hists.RawField(name, hw.Finish());
  }
  JsonWriter out;
  out.RawField("counters", counters.Finish());
  out.RawField("gauges", gauges.Finish());
  out.RawField("histograms", hists.Finish());
  return out.Finish();
}

}  // namespace dema::obs
