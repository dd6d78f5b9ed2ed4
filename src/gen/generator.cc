#include "gen/generator.h"

#include <algorithm>
#include <cmath>

namespace dema::gen {

StreamGenerator::StreamGenerator(const GeneratorConfig& config,
                                 std::unique_ptr<ValueDistribution> distribution)
    : node_(config.node),
      scale_rate_(config.scale_rate),
      time_jitter_(config.time_jitter),
      gap_us_(1e6 / config.event_rate),
      next_time_us_(config.start_time_us),
      distribution_(std::move(distribution)),
      rng_(config.seed) {}

Result<std::unique_ptr<StreamGenerator>> StreamGenerator::Create(
    GeneratorConfig config) {
  if (!(config.event_rate > 0)) {
    return Status::InvalidArgument("event_rate must be positive");
  }
  if (config.time_jitter < 0 || config.time_jitter >= 1.0) {
    return Status::InvalidArgument("time_jitter must be in [0, 1)");
  }
  if (config.scale_rate == 0) {
    return Status::InvalidArgument("scale_rate must be non-zero");
  }
  DEMA_ASSIGN_OR_RETURN(auto dist, ValueDistribution::Create(config.distribution));
  return std::unique_ptr<StreamGenerator>(
      new StreamGenerator(config, std::move(dist)));
}

Event StreamGenerator::Next() {
  Event e;
  e.value = distribution_->Next(&rng_) * scale_rate_;
  e.timestamp = next_time_us_;
  e.node = node_;
  e.seq = next_seq_++;

  double gap = gap_us_;
  if (time_jitter_ > 0) {
    gap *= rng_.Uniform(1.0 - time_jitter_, 1.0 + time_jitter_);
  }
  // Advance by at least one microsecond so event time strictly increases.
  next_time_us_ += std::max<DurationUs>(1, static_cast<DurationUs>(std::llround(gap)));
  return e;
}

void StreamGenerator::NextBatch(size_t n, std::vector<Event>* out) {
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) out->push_back(Next());
}

std::vector<Event> StreamGenerator::GenerateWindow(TimestampUs window_start_us,
                                                   DurationUs window_len_us) {
  std::vector<Event> out;
  if (next_time_us_ < window_start_us) next_time_us_ = window_start_us;
  TimestampUs end = window_start_us + window_len_us;
  while (next_time_us_ < end) out.push_back(Next());
  return out;
}

}  // namespace dema::gen
