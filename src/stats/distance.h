#ifndef FAIRLAW_STATS_DISTANCE_H_
#define FAIRLAW_STATS_DISTANCE_H_

#include <span>
#include <vector>

#include "base/result.h"
#include "stats/histogram.h"

namespace fairlaw::stats {

// Distances between probability distributions. These are the estimators
// §IV-F of the paper enumerates as the substrate of bias detection
// ("Hellinger, Total Variation (TV), Wasserstein (OT), Maximum Mean
// Discrepancy (MMD), etc."). Discrete variants operate on aligned
// probability vectors (same category order, each summing to ~1);
// continuous variants operate directly on samples.

/// Total variation distance: (1/2) * sum_i |p_i - q_i|. Range [0, 1].
FAIRLAW_NODISCARD Result<double> TotalVariation(std::span<const double> p,
                              std::span<const double> q);

/// Hellinger distance: sqrt(1 - sum_i sqrt(p_i q_i)) via the Bhattacharyya
/// coefficient, clamped for numerical safety. Range [0, 1].
FAIRLAW_NODISCARD Result<double> Hellinger(std::span<const double> p, std::span<const double> q);

/// Exact 1-D Wasserstein-1 (earth mover's) distance between two samples:
/// the integral of |F_x^{-1} - F_y^{-1}| over [0,1], computed from the
/// sorted samples. Samples may have different sizes.
FAIRLAW_NODISCARD Result<double> Wasserstein1Samples(std::span<const double> x,
                                   std::span<const double> y);

/// Wasserstein1Samples for inputs the caller has already sorted ascending
/// (cached sorted samples, repeated windowed comparisons). Skips the
/// per-call copy + sort; returns Status::Invalid when either input is
/// empty or out of order. Exactly equals Wasserstein1Samples on the same
/// data.
FAIRLAW_NODISCARD Result<double> Wasserstein1Presorted(
    std::span<const double> x_sorted, std::span<const double> y_sorted);

/// Wasserstein-1 between two histograms over the same [lo, hi] range with
/// the same bin count, treating each bin's mass as sitting at its center.
/// An O(bins) approximation of the sample distance — error is bounded by
/// one bin width — for monitoring paths that already maintain histograms.
FAIRLAW_NODISCARD Result<double> Wasserstein1Binned(const Histogram& p,
                                                    const Histogram& q);

/// Two-sample Kolmogorov–Smirnov statistic sup_x |F_x - F_y|.
FAIRLAW_NODISCARD Result<double> KolmogorovSmirnov(std::span<const double> x,
                                 std::span<const double> y);

/// KolmogorovSmirnov for inputs already sorted ascending; same contract
/// as Wasserstein1Presorted.
FAIRLAW_NODISCARD Result<double> KolmogorovSmirnovPresorted(
    std::span<const double> x_sorted, std::span<const double> y_sorted);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_DISTANCE_H_
