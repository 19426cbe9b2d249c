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

/// Biased (V-statistic) estimator of squared Maximum Mean Discrepancy
/// between samples x and y under the RBF kernel with bandwidth sigma;
/// always >= 0. The kernel sums are accumulated per fixed-size row block
/// and added in block order.
FAIRLAW_NODISCARD Result<double> MmdSquaredBiased(
    std::span<const Point> x, std::span<const Point> y, double sigma);

/// MmdSquaredBiased over 1-D samples: the exact oracle the RFF estimator
/// is validated against.
FAIRLAW_NODISCARD Result<double> MmdSquaredBiased1d(
    std::span<const double> x, std::span<const double> y, double sigma);

/// Linear-time O(n * D) estimator of squared MMD over 1-D samples via
/// random Fourier features (Rahimi–Recht): the RBF kernel's spectral
/// measure is sampled D times, each sample contributing one cosine
/// feature, and MMD^2 is the squared distance between the mean feature
/// vectors. The feature map is one CosSumAffine sweep per sample and
/// feature. Converges to MmdSquaredBiased1d as D grows; always >= 0.
FAIRLAW_NODISCARD Result<double> MmdSquaredRff1d(
    std::span<const double> x, std::span<const double> y, double sigma,
    const MmdRffOptions& options = {});

/// Sum of cos(scale * x[i] + offset) over all i: the RFF feature map's
/// inner loop. The cosine is a polynomial (reduction modulo 2*pi, then a
/// degree-20 even polynomial), within ~1e-10 of std::cos per element for
/// arguments up to ~2^26 * 2*pi. Deterministic within one process; on
/// x86-64 a copy compiled for x86-64-v3 (AVX2, FMA) runs where the CPU
/// has them, so results can differ in the last bits across hosts.
double CosSumAffine(std::span<const double> x, double scale, double offset);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_MMD_H_
