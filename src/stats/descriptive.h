#ifndef FAIRLAW_STATS_DESCRIPTIVE_H_
#define FAIRLAW_STATS_DESCRIPTIVE_H_

#include <span>
#include <vector>

#include "base/result.h"

namespace fairlaw::stats {

/// Arithmetic mean. Returns InvalidArgument on empty input.
FAIRLAW_NODISCARD Result<double> Mean(std::span<const double> values);

/// Unbiased sample variance (denominator n-1). Requires n >= 2.
FAIRLAW_NODISCARD Result<double> Variance(std::span<const double> values);

/// Unbiased sample standard deviation. Requires n >= 2.
FAIRLAW_NODISCARD Result<double> StdDev(std::span<const double> values);

/// Weighted mean with non-negative weights summing to a positive total.
FAIRLAW_NODISCARD Result<double> WeightedMean(std::span<const double> values,
                            std::span<const double> weights);

/// Smallest / largest element. Returns InvalidArgument on empty input.
FAIRLAW_NODISCARD Result<double> Min(std::span<const double> values);
FAIRLAW_NODISCARD Result<double> Max(std::span<const double> values);

/// Empirical quantile with linear interpolation between order statistics
/// (type-7, the numpy default). `q` must lie in [0, 1]; input need not be
/// sorted.
FAIRLAW_NODISCARD Result<double> Quantile(std::span<const double> values, double q);

/// Quantile at each of `levels` from one sort of `values`; entry i is
/// bit-identical to Quantile(values, levels[i]).
FAIRLAW_NODISCARD Result<std::vector<double>> Quantiles(
    std::span<const double> values, std::span<const double> levels);

/// Median (Quantile at 0.5).
FAIRLAW_NODISCARD Result<double> Median(std::span<const double> values);

/// Pearson correlation of two equal-length series. Requires n >= 2 and
/// non-zero variance on both sides.
FAIRLAW_NODISCARD Result<double> PearsonCorrelation(std::span<const double> x,
                                  std::span<const double> y);

/// Point-biserial correlation between a binary indicator and a continuous
/// variable (equals Pearson of the 0/1 coding with the values).
FAIRLAW_NODISCARD Result<double> PointBiserialCorrelation(std::span<const uint8_t> indicator,
                                        std::span<const double> values);

/// Covariance (denominator n-1). Requires n >= 2.
FAIRLAW_NODISCARD Result<double> Covariance(std::span<const double> x,
                          std::span<const double> y);

/// Summary of a univariate sample.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // 0 when count < 2
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;
};

/// Computes the full summary. Returns InvalidArgument on empty input.
FAIRLAW_NODISCARD Result<Summary> Summarize(std::span<const double> values);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_DESCRIPTIVE_H_
