#pragma once

#include <cstdint>

#include "net/codec.h"

namespace dema::core {

/// \brief Tuning knobs for the adaptive slice factor (Section 3.3).
struct GammaControllerOptions {
  /// Hard lower bound; the paper requires every slice to have >= 2 events.
  uint64_t min_gamma = 2;
  /// Hard upper bound (slices larger than the window are pointless).
  uint64_t max_gamma = 10'000'000;
  /// Exponential smoothing weight for new optima in (0, 1]; 1 jumps straight
  /// to each window's optimum, smaller values damp oscillation when event
  /// rates fluctuate window-to-window.
  double smoothing = 0.5;
};

/// \brief Per-window network-cost model of Dema (Section 3.3):
/// identification ships 2·l_G/γ synopsis events, calculation ships
/// m·(γ − 2) additional candidate events.
double GammaCostModel(uint64_t global_size, uint64_t num_candidate_slices,
                      uint64_t gamma);

/// \brief The tiny-window rule: true when a closed local window of
/// \p window_size events, at most \p gamma (so one slice), is cut at γ = 2
/// instead. Cut at 2, every slice holds ≤ 2 events and is known at the root
/// from its synopsis, so the window needs no candidate round trip and is not
/// retained. The rule fires when the γ = 2 synopsis (⌈n/2⌉ slices) is no
/// larger on the wire than the one-slice synopsis plus the round trip it
/// replaces: a request naming that slice and a reply of all n events in
/// \p reply_codec (at its smallest, for kCompact). Like the cost model for a
/// window's only slice, it assumes that slice is a candidate. Framing is
/// left out: the request and reply would each add an envelope or a keyed
/// entry, so the rule only fires where it pays on every transport. The
/// γ = 2 side is priced in the slice form (64 B per slice), although such a
/// batch ships in the smaller events form (`SynopsisBatch`): priced that
/// way, every one-slice window would ship in full, and on wide fan-outs most
/// of those events are never fetched.
bool CutAtGammaTwo(uint64_t window_size, uint64_t gamma,
                   net::EventCodec reply_codec);

/// \brief The cost model's unconstrained arg-min: γ* = sqrt(2·l_G / m).
uint64_t OptimalGamma(uint64_t global_size, uint64_t num_candidate_slices);

/// \brief Root-side controller that re-optimizes γ after every window.
///
/// After the calculation step of window w the root knows that window's true
/// l_G and candidate-slice count m; the controller moves γ toward the cost
/// model's arg-min for those observations. When rates and distributions are
/// stable across windows, γ converges to (and then reuses) the optimum, as
/// the paper prescribes.
class AdaptiveGammaController {
 public:
  AdaptiveGammaController(uint64_t initial_gamma, GammaControllerOptions options);

  /// The slice factor local nodes should currently use.
  uint64_t current() const { return current_; }

  /// Feeds one completed window's observations; returns the (possibly
  /// unchanged) new γ.
  uint64_t Observe(uint64_t global_size, uint64_t num_candidate_slices);

 private:
  uint64_t Clamp(uint64_t gamma) const;

  GammaControllerOptions options_;
  uint64_t current_;
};

}  // namespace dema::core
