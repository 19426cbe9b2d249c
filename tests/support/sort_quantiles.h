#ifndef FAIRLAW_TESTS_SUPPORT_SORT_QUANTILES_H_
#define FAIRLAW_TESTS_SUPPORT_SORT_QUANTILES_H_

#include <span>
#include <vector>

#include "base/result.h"

namespace fairlaw::stats {

/// Full-sort reference for stats::Quantiles: copies and sorts all of
/// `values`, then interpolates type-7 between the order statistics each
/// level reads. Same checks and error texts as Quantiles.
FAIRLAW_NODISCARD Result<std::vector<double>> QuantilesBySort(
    std::span<const double> values, std::span<const double> levels);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_TESTS_SUPPORT_SORT_QUANTILES_H_
