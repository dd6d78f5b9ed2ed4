#pragma once

#include <cmath>
#include <cstdint>

namespace dema {

/// \brief Deterministic random number generator used across the project.
///
/// Engine: xoshiro256** (Blackman & Vigna), 32 bytes of state, seeded by
/// running SplitMix64 from the seed to fill the four state words. Every
/// stochastic component (generators, disorder, simulated faults and jitter)
/// takes an explicit seed so that experiments are reproducible run-to-run.
///
/// Draws, all written out here:
/// - `Uniform`: the top 53 bits of one word, scaled into [lo, hi);
/// - `UniformInt`: Lemire's multiply-shift with rejection, unbiased over any
///   inclusive range, the full `int64_t` range included;
/// - `Normal`: Marsaglia's polar method; each accepted pair yields two
///   draws, the second cached for the next call;
/// - `Exponential`: inversion, `-log1p(-u) / lambda`;
/// - `Bernoulli`: `u < p` on one uniform.
///
/// Portability: nothing here comes from `<random>`, whose distributions'
/// algorithms differ between standard libraries. The raw stream, `Uniform`,
/// `UniformInt` and `Bernoulli` are pure integer and IEEE-754 arithmetic, so
/// the same seed yields the same values on any platform. `Normal` and
/// `Exponential` also call `std::log`/`std::log1p`, which are not required to
/// be correctly rounded: they are bit-identical wherever the math library is.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same sequence.
  explicit Rng(uint64_t seed = 42) {
    for (uint64_t& word : s_) word = SplitMix64(&seed);
  }

  /// The next 64 raw bits of the xoshiro256** stream.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    const double x = lo + (hi - lo) * Unit();
    // lo + (hi - lo) * u can round up to hi; keep the interval half-open.
    return x < hi ? x : std::nextafter(hi, lo);
  }
  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    // Unsigned arithmetic wraps, so the span of the full int64_t range is
    // representable as range - 1.
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (span == UINT64_MAX) return static_cast<int64_t>(NextU64());
    const uint64_t range = span + 1;
    // Lemire: the high word of x * range is uniform in [0, range) once the
    // low words below 2^64 mod range (the biased leftovers) are rejected.
    unsigned __int128 m = static_cast<unsigned __int128>(NextU64()) * range;
    if (static_cast<uint64_t>(m) < range) {
      const uint64_t threshold = (0 - range) % range;
      while (static_cast<uint64_t>(m) < threshold) {
        m = static_cast<unsigned __int128>(NextU64()) * range;
      }
    }
    return static_cast<int64_t>(static_cast<uint64_t>(lo) +
                                static_cast<uint64_t>(m >> 64));
  }
  /// Normal draw with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    if (has_spare_) {
      has_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * Unit() - 1.0;
      v = 2.0 * Unit() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * scale;
    has_spare_ = true;
    return mean + stddev * u * scale;
  }
  /// Exponential draw with the given rate parameter lambda.
  double Exponential(double lambda) { return -std::log1p(-Unit()) / lambda; }
  /// Bernoulli draw with success probability \p p.
  bool Bernoulli(double p) { return Unit() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  /// One SplitMix64 step (Vigna): advances \p state, returns its mix.
  static uint64_t SplitMix64(uint64_t* state) {
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1) from the top 53 bits.
  double Unit() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  uint64_t s_[4];
  /// Second draw of the last polar pair, handed out by the next `Normal`.
  double spare_ = 0.0;
  bool has_spare_ = false;
};

// One generator lives per key and node in the keyed harnesses.
static_assert(sizeof(Rng) <= 48, "Rng must stay small enough to keep per key");

}  // namespace dema
