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

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_DESCRIPTIVE_H_
