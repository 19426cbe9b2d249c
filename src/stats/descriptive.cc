#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

namespace fairlaw::stats {

Result<double> Mean(std::span<const double> values) {
  if (values.empty()) return Status::Invalid("Mean of empty sample");
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

Result<double> Variance(std::span<const double> values) {
  if (values.size() < 2) {
    return Status::Invalid("Variance requires at least 2 samples");
  }
  FAIRLAW_ASSIGN_OR_RETURN(double mean, Mean(values));
  double sum_sq = 0.0;
  for (double v : values) sum_sq += (v - mean) * (v - mean);
  return sum_sq / static_cast<double>(values.size() - 1);
}

Result<double> StdDev(std::span<const double> values) {
  FAIRLAW_ASSIGN_OR_RETURN(double var, Variance(values));
  return std::sqrt(var);
}

Result<double> Quantile(std::span<const double> values, double q) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> quantiles,
                           Quantiles(values, std::span<const double>(&q, 1)));
  return quantiles[0];
}

Result<std::vector<double>> Quantiles(std::span<const double> values,
                                      std::span<const double> levels) {
  if (values.empty()) return Status::Invalid("Quantile of empty sample");
  for (double q : levels) {
    if (q < 0.0 || q > 1.0) {
      return Status::Invalid("Quantile level must lie in [0,1]");
    }
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> quantiles;
  quantiles.reserve(levels.size());
  for (double q : levels) {
    const double position = q * static_cast<double>(sorted.size() - 1);
    const size_t lower = static_cast<size_t>(std::floor(position));
    const size_t upper = static_cast<size_t>(std::ceil(position));
    const double fraction = position - static_cast<double>(lower);
    quantiles.push_back(sorted[lower] +
                        fraction * (sorted[upper] - sorted[lower]));
  }
  return quantiles;
}

Result<double> Median(std::span<const double> values) {
  return Quantile(values, 0.5);
}

}  // namespace fairlaw::stats
