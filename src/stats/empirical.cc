#include "stats/empirical.h"

#include <algorithm>
#include <cmath>

namespace fairlaw::stats {

Result<EmpiricalDistribution> EmpiricalDistribution::Make(
    std::span<const double> values) {
  if (values.empty()) {
    return Status::Invalid("EmpiricalDistribution requires a non-empty sample");
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return EmpiricalDistribution(std::move(sorted));
}

double EmpiricalDistribution::Cdf(double x) const {
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(sorted_.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = static_cast<size_t>(std::ceil(position));
  const double fraction = position - static_cast<double>(lower);
  return sorted_[lower] + fraction * (sorted_[upper] - sorted_[lower]);
}

}  // namespace fairlaw::stats
