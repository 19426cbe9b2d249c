#ifndef FAIRLAW_STATS_BOOTSTRAP_H_
#define FAIRLAW_STATS_BOOTSTRAP_H_

#include <functional>
#include <span>
#include <vector>

#include "base/result.h"
#include "stats/rng.h"

namespace fairlaw::stats {

/// A two-sided confidence interval with its point estimate.
struct ConfidenceInterval {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double level = 0.0;  // e.g. 0.95
};

/// Statistic evaluated on a resampled dataset.
using Statistic = std::function<double(std::span<const double>)>;

/// Statistic evaluated on two resampled datasets (e.g. a rate gap between
/// two protected groups).
using TwoSampleStatistic =
    std::function<double(std::span<const double>, std::span<const double>)>;

/// Percentile bootstrap CI for `statistic` on `sample`. `replicates` must
/// be >= 2, `level` in (0, 1), and `sample` must have >= 2 elements (a
/// single observation resamples to itself, which would silently yield a
/// zero-width interval).
///
/// Replicates draw from counter-based RNG streams: one base value is
/// taken from `rng`, and replicate r seeds its own generator from
/// (base, r), so each replicate is a pure function of (base, r).
FAIRLAW_NODISCARD Result<ConfidenceInterval> BootstrapCi(
    std::span<const double> sample, const Statistic& statistic,
    int replicates, double level, Rng* rng);

/// Percentile bootstrap CI for a two-sample statistic; the two samples
/// are resampled independently. Fails when both samples are single
/// observations (every replicate would be identical — a zero-width
/// interval that looks like certainty). Same replicate streams as
/// BootstrapCi.
FAIRLAW_NODISCARD Result<ConfidenceInterval> BootstrapCiTwoSample(
    std::span<const double> sample_a, std::span<const double> sample_b,
    const TwoSampleStatistic& statistic, int replicates, double level,
    Rng* rng);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_BOOTSTRAP_H_
