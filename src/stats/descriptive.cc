#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

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
  std::vector<double> scratch(values.begin(), values.end());
  return QuantilesInPlace(scratch, levels);
}

namespace {

/// Puts the order statistic of each of `ranks` (ascending, distinct,
/// all in [lo, hi)) at its own index of `values`: nth_element on the
/// middle rank splits [lo, hi) at it, and each side recurses with the
/// ranks it holds, so k ranks cost O(n log k) rather than a full sort.
void SelectRanks(std::span<double> values, size_t lo, size_t hi,
                 std::span<const size_t> ranks) {
  if (ranks.empty()) return;
  const size_t mid = ranks.size() / 2;
  const size_t rank = ranks[mid];
  std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(lo),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.begin() + static_cast<std::ptrdiff_t>(hi));
  SelectRanks(values, lo, rank, ranks.first(mid));
  SelectRanks(values, rank + 1, hi, ranks.subspan(mid + 1));
}

/// The type-7 interpolation position of level q in a sample of n.
double Position(double q, size_t n) {
  return q * static_cast<double>(n - 1);
}

}  // namespace

Result<std::vector<double>> QuantilesInPlace(std::span<double> values,
                                             std::span<const double> levels) {
  if (values.empty()) return Status::Invalid("Quantile of empty sample");
  for (double q : levels) {
    if (q < 0.0 || q > 1.0) {
      return Status::Invalid("Quantile level must lie in [0,1]");
    }
  }
  // The interpolation reads two order statistics per level.
  std::vector<size_t> ranks;
  ranks.reserve(2 * levels.size());
  for (double q : levels) {
    const double position = Position(q, values.size());
    ranks.push_back(static_cast<size_t>(std::floor(position)));
    ranks.push_back(static_cast<size_t>(std::ceil(position)));
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  SelectRanks(values, 0, values.size(), ranks);
  std::vector<double> quantiles;
  quantiles.reserve(levels.size());
  for (double q : levels) {
    const double position = Position(q, values.size());
    const size_t lower = static_cast<size_t>(std::floor(position));
    const size_t upper = static_cast<size_t>(std::ceil(position));
    const double fraction = position - static_cast<double>(lower);
    quantiles.push_back(values[lower] +
                        fraction * (values[upper] - values[lower]));
  }
  return quantiles;
}

Result<double> Median(std::span<const double> values) {
  return Quantile(values, 0.5);
}

}  // namespace fairlaw::stats
