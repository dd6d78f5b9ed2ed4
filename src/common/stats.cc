#include "common/stats.h"

#include <cmath>

namespace dema {

void MpeAccumulator::Add(double exact, double approx) {
  double err;
  if (exact != 0.0) {
    err = std::abs(approx - exact) / std::abs(exact);
  } else {
    err = std::abs(approx - exact);
  }
  sum_ += err;
  ++count_;
}

}  // namespace dema
