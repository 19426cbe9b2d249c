#ifndef FAIRLAW_STATS_DISTANCE_H_
#define FAIRLAW_STATS_DISTANCE_H_

#include <cstddef>
#include <span>
#include <string_view>
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

/// A span of doubles checked ascending once, by Make, so the kernels
/// that read it again and again do not check it again. The values must
/// outlive it.
class AscendingSpan {
 public:
  /// Fails unless `values` is sorted ascending; `what` names it in the
  /// error.
  FAIRLAW_NODISCARD static Result<AscendingSpan> Make(
      std::span<const double> values, std::string_view what);

  std::span<const double> values() const { return values_; }

 private:
  explicit AscendingSpan(std::span<const double> values) : values_(values) {}

  std::span<const double> values_;
};

/// The ascending multiset difference `all_sorted` minus
/// `removed_sorted`, walked in place: the values std::set_difference
/// writes (a value in `all_sorted` m times and in `removed_sorted` k
/// times is left m - k times), without a vector to hold them.
/// `removed_sorted` is a sub-multiset of `all_sorted` (one group's
/// scores against all of them), so size() is the difference of the
/// sizes.
class SortedDifference {
 public:
  SortedDifference(AscendingSpan all_sorted, AscendingSpan removed_sorted)
      : all_(all_sorted.values()), removed_(removed_sorted.values()) {}

  std::span<const double> all() const { return all_; }
  std::span<const double> removed() const { return removed_; }
  size_t size() const { return all_.size() - removed_.size(); }

  /// A forward walk over the difference. value() is valid while fewer
  /// than size() values have been passed by Step().
  class Walk {
   public:
    explicit Walk(const SortedDifference& difference)
        : at_(difference.all_.data()),
          end_(at_ + difference.all_.size()),
          removed_(difference.removed_.data()),
          removed_end_(removed_ + difference.removed_.size()) {
      Skip();
    }
    double value() const { return *at_; }
    void Step() {
      ++at_;
      Skip();
    }

   private:
    /// std::set_difference's step: drops the values a removed one
    /// matches, and moves past removed values smaller than the next.
    void Skip() {
      while (at_ != end_ && removed_ != removed_end_) {
        if (*at_ < *removed_) return;
        if (!(*removed_ < *at_)) ++at_;
        ++removed_;
      }
    }

    const double* at_;
    const double* end_;
    const double* removed_;
    const double* removed_end_;
  };

 private:
  std::span<const double> all_;
  std::span<const double> removed_;
};

/// Two sample distances computed together.
struct SampleDistances {
  double wasserstein1 = 0.0;
  double ks = 0.0;
};

/// Wasserstein1Presorted and KolmogorovSmirnovPresorted of `x_sorted`
/// against a SortedDifference, in one walk of it: each value of the
/// difference is handed to both sweeps, which make the steps of their
/// span kernels in the same order, so each distance equals the span
/// overload on the materialized difference, bit for bit. The inputs
/// were checked ascending when their AscendingSpans were made; this
/// fails only when `x_sorted` or the difference is empty. Its span opens
/// under `parent_path` (an obs::CurrentPath() captured on the calling
/// thread), so a call on a pool worker nests where a serial call would.
FAIRLAW_NODISCARD Result<SampleDistances> Wasserstein1AndKsPresorted(
    AscendingSpan x_sorted, const SortedDifference& y_sorted,
    std::string_view parent_path);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_DISTANCE_H_
