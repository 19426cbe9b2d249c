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

/// Quantile at each of `levels` from one copy of `values`; entry i is
/// bit-identical to Quantile(values, levels[i]). Only the order
/// statistics the interpolation reads are selected (nth_element), so
/// the cost is O(n log levels), not a full sort; each value equals the
/// full sort's up to the sign of a zero, since -0.0 == 0.0 leaves their
/// order unspecified in either.
FAIRLAW_NODISCARD Result<std::vector<double>> Quantiles(
    std::span<const double> values, std::span<const double> levels);

/// Quantiles() without the copy: selects in `values` and leaves it
/// permuted, for callers that reuse one scratch buffer.
FAIRLAW_NODISCARD Result<std::vector<double>> QuantilesInPlace(
    std::span<double> values, std::span<const double> levels);

/// Median (Quantile at 0.5).
FAIRLAW_NODISCARD Result<double> Median(std::span<const double> values);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_DESCRIPTIVE_H_
