#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dema {

/// \brief Streaming summary statistics (Welford's algorithm).
///
/// Tracks count, mean, variance, min, and max of a sequence of doubles in
/// O(1) memory. Not thread-safe; wrap with external synchronization or use
/// one instance per thread and `Merge`.
class OnlineStats {
 public:
  /// Adds one observation.
  void Add(double x) {
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const OnlineStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    uint64_t n = count_ + other.count_;
    double delta = other.mean_ - mean_;
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    mean_ += delta * nb / static_cast<double>(n);
    m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
    count_ = n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  /// Number of observations.
  uint64_t count() const { return count_; }
  /// Arithmetic mean (0 when empty).
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance (0 when fewer than 2 observations).
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
  }
  /// Population standard deviation.
  double stddev() const { return std::sqrt(variance()); }
  /// Minimum observation (+inf when empty).
  double min() const { return min_; }
  /// Maximum observation (-inf when empty).
  double max() const { return max_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Mean percentage error between an approximation and a reference.
///
/// Used by the accuracy experiment (Fig. 7b): accuracy = 1 - MPE, where MPE
/// averages |approx - exact| / |exact| over all windows (windows with a zero
/// reference contribute |approx - exact| instead, to stay defined).
class MpeAccumulator {
 public:
  /// Adds one (exact, approximate) result pair.
  void Add(double exact, double approx);

  /// Mean percentage error in [0, inf); 0 when empty.
  double Mpe() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Accuracy = 1 - MPE (can be negative for terrible approximations).
  double Accuracy() const { return 1.0 - Mpe(); }
  /// Number of pairs added.
  uint64_t count() const { return count_; }

 private:
  double sum_ = 0.0;
  uint64_t count_ = 0;
};

}  // namespace dema
