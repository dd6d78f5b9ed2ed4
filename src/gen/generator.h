#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event.h"
#include "common/result.h"
#include "common/rng.h"
#include "gen/distribution.h"

namespace dema::gen {

/// \brief Configuration of one data-stream node's generator.
///
/// Mirrors the paper's generator (Section 4, "Generators"): each local node
/// hosts a generator instance replaying DEBS-2013-like sensor values, with
/// two user knobs — `scale_rate` (multiplies values, controlling how much
/// value ranges of different nodes overlap) and `event_rate` (events per
/// second of event time, controlling local window sizes).
struct GeneratorConfig {
  /// Node id stamped into produced events.
  NodeId node = 0;
  /// Deterministic seed; different nodes should use different seeds, which
  /// stands in for "replaying the dataset from different positions".
  uint64_t seed = 42;
  /// Value process.
  DistributionParams distribution;
  /// Multiplies every value (the paper's scale rate).
  double scale_rate = 1.0;
  /// Events per second of event time (the paper's event rate).
  double event_rate = 100000.0;
  /// Event time of the first event.
  TimestampUs start_time_us = 0;
  /// Relative jitter on inter-event gaps in [0, 1); 0 = perfectly paced.
  double time_jitter = 0.0;
};

/// \brief Deterministic event source for one data-stream node.
///
/// Produces events whose event times advance at `event_rate` and whose values
/// follow the configured distribution scaled by `scale_rate`. Sequence
/// numbers increase monotonically, so events from one generator are unique
/// under the global event order.
class StreamGenerator {
 public:
  /// Builds a generator; fails on invalid configuration.
  static Result<std::unique_ptr<StreamGenerator>> Create(GeneratorConfig config);

  /// Produces the next event.
  Event Next();

  /// Produces the next \p n events, appended to \p out.
  void NextBatch(size_t n, std::vector<Event>* out);

  /// Produces every event with event time in [window_start, window_start +
  /// window_len) — i.e. one local window's worth. The generator's internal
  /// event time must not have passed window_start yet.
  std::vector<Event> GenerateWindow(TimestampUs window_start_us,
                                    DurationUs window_len_us);

  /// Event time of the next event to be produced.
  TimestampUs next_time_us() const { return next_time_us_; }

 private:
  StreamGenerator(const GeneratorConfig& config,
                  std::unique_ptr<ValueDistribution> distribution);

  // Only what `Next` reads: a keyed harness keeps one generator per key and
  // node alive, so every byte here is paid hundreds of thousands of times.
  NodeId node_;
  uint32_t next_seq_ = 0;
  double scale_rate_;
  double time_jitter_;
  double gap_us_;
  TimestampUs next_time_us_;
  std::unique_ptr<ValueDistribution> distribution_;
  Rng rng_;
};

static_assert(sizeof(StreamGenerator) <= 128,
              "StreamGenerator keeps only what Next() reads");

}  // namespace dema::gen
