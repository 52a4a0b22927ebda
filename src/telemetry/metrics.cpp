#include "telemetry/metrics.h"

#include <cmath>

namespace unify::telemetry {

void Summary::observe(double value) {
  values_.push_back(value);
  sum_ += value;
}

double Summary::percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

}  // namespace unify::telemetry
