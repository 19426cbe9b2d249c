#include "support/sort_quantiles.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace fairlaw::stats {

Result<std::vector<double>> QuantilesBySort(std::span<const double> values,
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

}  // namespace fairlaw::stats
