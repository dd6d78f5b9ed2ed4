#include "dema/adaptive_gamma.h"

#include <algorithm>
#include <cmath>

#include "dema/slice.h"

namespace dema::core {

double GammaCostModel(uint64_t global_size, uint64_t num_candidate_slices,
                      uint64_t gamma) {
  if (gamma < 2) gamma = 2;
  double identification = 2.0 * static_cast<double>(global_size) /
                          static_cast<double>(gamma);
  double calculation = static_cast<double>(num_candidate_slices) *
                       (static_cast<double>(gamma) - 2.0);
  return identification + calculation;
}

bool CutAtGammaTwo(uint64_t window_size, uint64_t gamma,
                   net::EventCodec reply_codec) {
  if (window_size == 0 || window_size > gamma) return false;
  const uint64_t extra_synopses = (window_size + 1) / 2 - 1;
  // Request: window id, index count, one index. Reply: window id, node, the
  // encoded events.
  const uint64_t request = sizeof(uint64_t) + 2 * sizeof(uint32_t);
  const uint64_t reply = sizeof(uint64_t) + sizeof(NodeId) +
                         net::MinEncodedEventsBytes(window_size, reply_codec);
  return extra_synopses * kSliceSynopsisWireBytes <= request + reply;
}

uint64_t OptimalGamma(uint64_t global_size, uint64_t num_candidate_slices) {
  if (global_size == 0) return 2;
  if (num_candidate_slices == 0) num_candidate_slices = 1;
  double opt = std::sqrt(2.0 * static_cast<double>(global_size) /
                         static_cast<double>(num_candidate_slices));
  uint64_t g = static_cast<uint64_t>(std::llround(opt));
  // The continuous arg-min sits between two integers; pick the cheaper one.
  double here = GammaCostModel(global_size, num_candidate_slices, g);
  double up = GammaCostModel(global_size, num_candidate_slices, g + 1);
  if (up < here) ++g;
  if (g >= 3) {
    double down = GammaCostModel(global_size, num_candidate_slices, g - 1);
    if (down < GammaCostModel(global_size, num_candidate_slices, g)) --g;
  }
  return std::max<uint64_t>(2, g);
}

AdaptiveGammaController::AdaptiveGammaController(uint64_t initial_gamma,
                                                 GammaControllerOptions options)
    : options_(options), current_(0) {
  if (options_.min_gamma < 2) options_.min_gamma = 2;
  if (options_.max_gamma < options_.min_gamma) {
    options_.max_gamma = options_.min_gamma;
  }
  options_.smoothing = std::clamp(options_.smoothing, 0.01, 1.0);
  current_ = Clamp(initial_gamma);
}

uint64_t AdaptiveGammaController::Clamp(uint64_t gamma) const {
  return std::clamp(gamma, options_.min_gamma, options_.max_gamma);
}

uint64_t AdaptiveGammaController::Observe(uint64_t global_size,
                                          uint64_t num_candidate_slices) {
  if (global_size == 0) return current_;
  uint64_t target = Clamp(OptimalGamma(global_size, num_candidate_slices));
  double blended = (1.0 - options_.smoothing) * static_cast<double>(current_) +
                   options_.smoothing * static_cast<double>(target);
  uint64_t next = Clamp(static_cast<uint64_t>(std::llround(blended)));
  if (next == current_ && target != current_) {
    // Rounding deadlock guard: with smoothing < 0.5 the EWMA rounds back to
    // current_ whenever |target - current_| <= 1/(2*smoothing), which would
    // park γ a few steps from the cost-model optimum forever. Always step at
    // least one unit toward the target.
    next = target > current_ ? current_ + 1 : current_ - 1;
  }
  current_ = next;
  return current_;
}

}  // namespace dema::core
