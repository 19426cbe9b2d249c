#ifndef FAIRLAW_STATS_EMPIRICAL_H_
#define FAIRLAW_STATS_EMPIRICAL_H_

#include <span>
#include <vector>

#include "base/result.h"

namespace fairlaw::stats {

/// Empirical distribution of a univariate continuous sample.
///
/// Stores the sorted sample and answers CDF / quantile queries; this is
/// the common substrate for the 1-D Wasserstein distance, the
/// Kolmogorov–Smirnov statistic, and quantile-based repair methods.
class EmpiricalDistribution {
 public:
  /// Builds from a non-empty sample (copied and sorted).
  FAIRLAW_NODISCARD static Result<EmpiricalDistribution> Make(std::span<const double> values);

  size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted() const { return sorted_; }

  /// Right-continuous empirical CDF: fraction of sample <= x.
  double Cdf(double x) const;

  /// Empirical quantile with linear interpolation (type-7). q in [0,1] is
  /// clamped.
  double Quantile(double q) const;

  double min() const { return sorted_.front(); }
  double max() const { return sorted_.back(); }

 private:
  explicit EmpiricalDistribution(std::vector<double> sorted)
      : sorted_(std::move(sorted)) {}

  std::vector<double> sorted_;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_EMPIRICAL_H_
