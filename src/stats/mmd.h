#ifndef FAIRLAW_STATS_MMD_H_
#define FAIRLAW_STATS_MMD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "base/result.h"

namespace fairlaw::stats {

/// A point in d-dimensional feature space.
using Point = std::vector<double>;

/// RBF (Gaussian) kernel exp(-||x-y||^2 / (2 sigma^2)).
double RbfKernel(const Point& x, const Point& y, double sigma);

/// Median heuristic bandwidth: the median pairwise Euclidean distance over
/// the pooled sample. When the pooled sample has more than `max_pairs`
/// pairs, the median is taken over `max_pairs` pairs drawn from
/// counter-based SplitMix64 streams (pair k draws from its own seeded
/// stream), so the result depends only on the input — never on iteration
/// scheduling or hidden state. Returns a strictly positive value; falls
/// back to 1.0 when all points coincide.
double MedianHeuristicBandwidth(std::span<const Point> x,
                                std::span<const Point> y,
                                size_t max_pairs = 100000);

/// Options for the linear-time random-Fourier-feature estimator.
struct MmdRffOptions {
  /// Number of random features D. Estimation error on top of the exact
  /// estimator decays as O(1/sqrt(D)); D = 256 lands within ~0.05 of the
  /// exact value on unit-scale data.
  size_t num_features = 256;
  /// Base seed of the counter-based feature streams: feature j draws its
  /// frequency and phase from Rng(SplitMix64(seed ^ SplitMix64(j))), so
  /// the estimate is a pure function of (inputs, sigma, D, seed).
  uint64_t seed = 0x52ff5eedULL;
};

/// Unbiased estimator of squared Maximum Mean Discrepancy between samples
/// x and y under the RBF kernel with bandwidth sigma. Requires at least 2
/// points per sample. The estimator may be slightly negative for close
/// distributions; callers wanting a distance should clamp at 0. The
/// kernel sums are accumulated per fixed-size row block and added in
/// block order (here and in MmdSquaredBiased).
FAIRLAW_NODISCARD Result<double> MmdSquaredUnbiased(
    std::span<const Point> x, std::span<const Point> y, double sigma);

/// Biased (V-statistic) estimator of squared MMD; always >= 0.
FAIRLAW_NODISCARD Result<double> MmdSquaredBiased(
    std::span<const Point> x, std::span<const Point> y, double sigma);

/// Linear-time O(n * D) estimator of squared MMD via random Fourier
/// features (Rahimi–Recht): the RBF kernel's spectral measure is sampled
/// D times, each sample contributing one cosine feature, and MMD^2 is the
/// squared distance between the mean feature vectors. Converges to the
/// biased exact estimator as D grows; always >= 0. The exact estimators
/// above remain the oracle — use them to validate tolerances.
FAIRLAW_NODISCARD Result<double> MmdSquaredRff(
    std::span<const Point> x, std::span<const Point> y, double sigma,
    const MmdRffOptions& options = {});

/// Convenience overloads for 1-D samples. The RFF variant runs the
/// feature map directly over the contiguous input (SIMD fast path).
FAIRLAW_NODISCARD Result<double> MmdSquaredUnbiased1d(
    std::span<const double> x, std::span<const double> y, double sigma);
FAIRLAW_NODISCARD Result<double> MmdSquaredBiased1d(
    std::span<const double> x, std::span<const double> y, double sigma);
FAIRLAW_NODISCARD Result<double> MmdSquaredRff1d(
    std::span<const double> x, std::span<const double> y, double sigma,
    const MmdRffOptions& options = {});

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_MMD_H_
