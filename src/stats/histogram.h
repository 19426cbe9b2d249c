#ifndef FAIRLAW_STATS_HISTOGRAM_H_
#define FAIRLAW_STATS_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "base/result.h"

namespace fairlaw::stats {

/// Equal-width histogram over [lo, hi] with a fixed bin count.
///
/// Values outside [lo, hi] are clamped into the first/last bin so that a
/// histogram built from a sample always accounts for every observation —
/// bias-detection distances must compare full distributions, not trimmed
/// ones.
class Histogram {
 public:
  /// Creates an empty histogram. Requires lo < hi and bins >= 1.
  FAIRLAW_NODISCARD static Result<Histogram> Make(double lo, double hi, size_t bins);

  /// Adds one observation (clamped into range) with the given weight.
  void Add(double value, double weight = 1.0);

  /// Adds every value in `values` with weight 1.
  void AddAll(std::span<const double> values);

  size_t num_bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double total_weight() const { return total_weight_; }

  /// Weight accumulated in bin `i`.
  double count(size_t i) const { return counts_[i]; }

  /// Bin probabilities (counts normalized to sum 1). Returns a uniform
  /// vector when the histogram is empty so that distance computations
  /// remain well defined.
  std::vector<double> Probabilities() const;

  /// Index of the bin receiving `value`.
  size_t BinIndex(double value) const;

 private:
  Histogram(double lo, double hi, size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0.0) {}

  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_weight_ = 0.0;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_HISTOGRAM_H_
