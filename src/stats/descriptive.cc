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

Result<double> WeightedMean(std::span<const double> values,
                            std::span<const double> weights) {
  if (values.size() != weights.size()) {
    return Status::Invalid("WeightedMean: size mismatch");
  }
  if (values.empty()) return Status::Invalid("WeightedMean of empty sample");
  double total = 0.0;
  double weight_sum = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (weights[i] < 0.0) {
      return Status::Invalid("WeightedMean: negative weight");
    }
    total += values[i] * weights[i];
    weight_sum += weights[i];
  }
  if (weight_sum <= 0.0) {
    return Status::Invalid("WeightedMean: weights sum to zero");
  }
  return total / weight_sum;
}

Result<double> Min(std::span<const double> values) {
  if (values.empty()) return Status::Invalid("Min of empty sample");
  return *std::min_element(values.begin(), values.end());
}

Result<double> Max(std::span<const double> values) {
  if (values.empty()) return Status::Invalid("Max of empty sample");
  return *std::max_element(values.begin(), values.end());
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

Result<double> Covariance(std::span<const double> x,
                          std::span<const double> y) {
  if (x.size() != y.size()) return Status::Invalid("Covariance: size mismatch");
  if (x.size() < 2) {
    return Status::Invalid("Covariance requires at least 2 samples");
  }
  FAIRLAW_ASSIGN_OR_RETURN(double mx, Mean(x));
  FAIRLAW_ASSIGN_OR_RETURN(double my, Mean(y));
  double total = 0.0;
  for (size_t i = 0; i < x.size(); ++i) total += (x[i] - mx) * (y[i] - my);
  return total / static_cast<double>(x.size() - 1);
}

Result<double> PearsonCorrelation(std::span<const double> x,
                                  std::span<const double> y) {
  FAIRLAW_ASSIGN_OR_RETURN(double cov, Covariance(x, y));
  FAIRLAW_ASSIGN_OR_RETURN(double sx, StdDev(x));
  FAIRLAW_ASSIGN_OR_RETURN(double sy, StdDev(y));
  if (sx == 0.0 || sy == 0.0) {
    return Status::Invalid("PearsonCorrelation: zero variance");
  }
  return cov / (sx * sy);
}

Result<double> PointBiserialCorrelation(std::span<const uint8_t> indicator,
                                        std::span<const double> values) {
  std::vector<double> coded(indicator.size());
  for (size_t i = 0; i < indicator.size(); ++i) {
    coded[i] = indicator[i] != 0 ? 1.0 : 0.0;
  }
  return PearsonCorrelation(coded, values);
}

Result<Summary> Summarize(std::span<const double> values) {
  if (values.empty()) return Status::Invalid("Summarize of empty sample");
  Summary summary;
  summary.count = values.size();
  FAIRLAW_ASSIGN_OR_RETURN(summary.mean, Mean(values));
  if (values.size() >= 2) {
    FAIRLAW_ASSIGN_OR_RETURN(summary.stddev, StdDev(values));
  } else {
    summary.stddev = 0.0;
  }
  FAIRLAW_ASSIGN_OR_RETURN(summary.min, Min(values));
  FAIRLAW_ASSIGN_OR_RETURN(summary.q25, Quantile(values, 0.25));
  FAIRLAW_ASSIGN_OR_RETURN(summary.median, Quantile(values, 0.5));
  FAIRLAW_ASSIGN_OR_RETURN(summary.q75, Quantile(values, 0.75));
  FAIRLAW_ASSIGN_OR_RETURN(summary.max, Max(values));
  return summary;
}

}  // namespace fairlaw::stats
