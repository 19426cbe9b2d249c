#include "stats/mmd.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "base/simd.h"
#include "obs/obs.h"
#include "stats/rng.h"

namespace fairlaw::stats {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Row-block width of the tiled exact path and feature-block width of the
/// RFF sum. Each block is summed on its own and the block sums are added
/// in block order, so these widths fix the float summation grouping —
/// changing one changes results in the last bits.
constexpr size_t kRowBlock = 256;
constexpr size_t kFeatureBlock = 32;

double SquaredDistance(const Point& x, const Point& y) {
  FAIRLAW_CHECK_MSG(x.size() == y.size(), "kernel rows must have equal dimension");
  double total = 0.0;
  for (size_t d = 0; d < x.size(); ++d) {
    double diff = x[d] - y[d];
    total += diff * diff;
  }
  return total;
}

std::vector<Point> Lift(std::span<const double> values) {
  std::vector<Point> points(values.size());
  for (size_t i = 0; i < values.size(); ++i) points[i] = {values[i]};
  return points;
}

/// The seed of stream k (a sampled pair, a random feature). Mixing the
/// counter before xoring decorrelates streams even though the counters
/// are sequential.
uint64_t StreamSeed(uint64_t base, size_t k) {
  return SplitMix64(base ^ SplitMix64(static_cast<uint64_t>(k)));
}

struct KernelSums {
  double kxx = 0.0;
  double kyy = 0.0;
  double kxy = 0.0;
};

/// Raw kernel sums over all (i, j) pairs — kxx and kyy optionally without
/// the diagonal — block-tiled over rows: each x-row block accumulates its
/// kxx and kxy contributions, each y-row block its kyy contribution, and
/// the block sums are added in block order.
KernelSums TiledKernelSums(std::span<const Point> x, std::span<const Point> y,
                           double sigma, bool exclude_diagonal) {
  KernelSums sums;
  for (size_t begin = 0; begin < x.size(); begin += kRowBlock) {
    const size_t end = std::min(x.size(), begin + kRowBlock);
    double acc_xx = 0.0;
    double acc_xy = 0.0;
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < x.size(); ++j) {
        if (exclude_diagonal && i == j) continue;
        acc_xx += RbfKernel(x[i], x[j], sigma);
      }
      for (size_t j = 0; j < y.size(); ++j) {
        acc_xy += RbfKernel(x[i], y[j], sigma);
      }
    }
    sums.kxx += acc_xx;
    sums.kxy += acc_xy;
  }
  for (size_t begin = 0; begin < y.size(); begin += kRowBlock) {
    const size_t end = std::min(y.size(), begin + kRowBlock);
    double acc_yy = 0.0;
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < y.size(); ++j) {
        if (exclude_diagonal && i == j) continue;
        acc_yy += RbfKernel(y[i], y[j], sigma);
      }
    }
    sums.kyy += acc_yy;
  }
  return sums;
}

Status CheckRffArgs(size_t nx, size_t ny, double sigma,
                    const MmdRffOptions& options) {
  if (nx == 0 || ny == 0) {
    return Status::Invalid("MmdSquaredRff: needs non-empty samples");
  }
  if (sigma <= 0.0) return Status::Invalid("MMD: sigma must be positive");
  if (options.num_features == 0) {
    return Status::Invalid("MmdSquaredRff: num_features must be >= 1");
  }
  return Status::OK();
}

/// Sum over features j of diff(j)^2, accumulated per fixed-size feature
/// block with the block sums added in block order.
template <typename FeatureDiff>
double SumFeatureDiffSquared(size_t num_features,
                             const FeatureDiff& feature_diff) {
  double total = 0.0;
  for (size_t begin = 0; begin < num_features; begin += kFeatureBlock) {
    const size_t end = std::min(num_features, begin + kFeatureBlock);
    double acc = 0.0;
    for (size_t j = begin; j < end; ++j) {
      const double diff = feature_diff(j);
      acc += diff * diff;
    }
    total += acc;
  }
  return total;
}

void RecordRffProbes(const MmdRffOptions& options) {
  obs::GetCounter("stats.mmd.rff_calls")->Increment();
  obs::GetCounter("stats.mmd.rff_features")
      ->Increment(static_cast<uint64_t>(options.num_features));
  if (!simd::kVectorizedCos) {
    obs::GetCounter("stats.simd.scalar_fallback")->Increment();
  }
}

/// RFF core over contiguous 1-D samples (validated by the caller).
/// Feature j draws its frequency w ~ N(0, 1/sigma^2) and phase
/// b ~ U[0, 2pi) from its own counter-seeded stream, then the feature-map
/// means are cosine sums over the raw inputs — one affine cosine sweep
/// per sample, vectorized where the backend allows.
double Rff1dCore(std::span<const double> x, std::span<const double> y,
                 double sigma, const MmdRffOptions& options) {
  const double nx = static_cast<double>(x.size());
  const double ny = static_cast<double>(y.size());
  const double total = SumFeatureDiffSquared(
      options.num_features, [&](size_t j) {
        Rng rng(StreamSeed(options.seed, j));
        const double w = rng.Normal() / sigma;
        const double b = rng.Uniform() * kTwoPi;
        const double sum_x = simd::CosSumAffine(x.data(), x.size(), w, b);
        const double sum_y = simd::CosSumAffine(y.data(), y.size(), w, b);
        return sum_x / nx - sum_y / ny;
      });
  return 2.0 * total / static_cast<double>(options.num_features);
}

}  // namespace

double RbfKernel(const Point& x, const Point& y, double sigma) {
  return std::exp(-SquaredDistance(x, y) / (2.0 * sigma * sigma));
}

double MedianHeuristicBandwidth(std::span<const Point> x,
                                std::span<const Point> y, size_t max_pairs) {
  std::vector<const Point*> pooled;
  pooled.reserve(x.size() + y.size());
  for (const Point& p : x) pooled.push_back(&p);
  for (const Point& p : y) pooled.push_back(&p);
  if (pooled.size() < 2) return 1.0;

  const size_t n = pooled.size();
  const size_t total_pairs = n * (n - 1) / 2;
  std::vector<double> distances;
  if (total_pairs <= std::max<size_t>(max_pairs, 1)) {
    // Small input: exact median over every pair.
    distances.reserve(total_pairs);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        distances.push_back(
            std::sqrt(SquaredDistance(*pooled[i], *pooled[j])));
      }
    }
  } else {
    // Large input: median over max_pairs sampled pairs. Pair k draws its
    // endpoints from its own counter-seeded stream, so the subsample — and
    // the bandwidth — is a pure function of the input, independent of any
    // iteration order, and costs O(max_pairs) instead of an O(n^2) sweep.
    const size_t draws = std::max<size_t>(max_pairs, 1);
    constexpr uint64_t kPairStreamBase = 0x6d65646961ULL;
    distances.reserve(draws);
    for (size_t k = 0; k < draws; ++k) {
      Rng rng(StreamSeed(kPairStreamBase, k));
      const size_t i = static_cast<size_t>(rng.UniformInt(n));
      size_t j = static_cast<size_t>(rng.UniformInt(n - 1));
      if (j >= i) ++j;  // uniform over the n-1 partners of i
      distances.push_back(std::sqrt(SquaredDistance(*pooled[i], *pooled[j])));
    }
  }
  if (distances.empty()) return 1.0;
  std::nth_element(distances.begin(),
                   distances.begin() + distances.size() / 2, distances.end());
  double median = distances[distances.size() / 2];
  return median > 0.0 ? median : 1.0;
}

Result<double> MmdSquaredUnbiased(std::span<const Point> x,
                                  std::span<const Point> y, double sigma) {
  if (x.size() < 2 || y.size() < 2) {
    return Status::Invalid("MMD unbiased estimator needs >= 2 points per "
                           "sample");
  }
  if (sigma <= 0.0) return Status::Invalid("MMD: sigma must be positive");
  obs::TraceSpan span("mmd/exact_unbiased");
  const double nx = static_cast<double>(x.size());
  const double ny = static_cast<double>(y.size());
  const KernelSums sums =
      TiledKernelSums(x, y, sigma, /*exclude_diagonal=*/true);
  return sums.kxx / (nx * (nx - 1.0)) + sums.kyy / (ny * (ny - 1.0)) -
         2.0 * sums.kxy / (nx * ny);
}

Result<double> MmdSquaredBiased(std::span<const Point> x,
                                std::span<const Point> y, double sigma) {
  if (x.empty() || y.empty()) {
    return Status::Invalid("MMD biased estimator needs non-empty samples");
  }
  if (sigma <= 0.0) return Status::Invalid("MMD: sigma must be positive");
  obs::TraceSpan span("mmd/exact_biased");
  const double nx = static_cast<double>(x.size());
  const double ny = static_cast<double>(y.size());
  const KernelSums sums =
      TiledKernelSums(x, y, sigma, /*exclude_diagonal=*/false);
  return std::max(0.0, sums.kxx / (nx * nx) + sums.kyy / (ny * ny) -
                           2.0 * sums.kxy / (nx * ny));
}

Result<double> MmdSquaredRff(std::span<const Point> x,
                             std::span<const Point> y, double sigma,
                             const MmdRffOptions& options) {
  FAIRLAW_RETURN_NOT_OK(CheckRffArgs(x.size(), y.size(), sigma, options));
  const size_t dim = x[0].size();
  if (dim == 0) return Status::Invalid("MmdSquaredRff: zero-dimensional points");
  for (const Point& p : x) {
    if (p.size() != dim) {
      return Status::Invalid("MmdSquaredRff: inconsistent point dimensions");
    }
  }
  for (const Point& p : y) {
    if (p.size() != dim) {
      return Status::Invalid("MmdSquaredRff: inconsistent point dimensions");
    }
  }
  obs::TraceSpan span("mmd/rff");
  RecordRffProbes(options);
  if (dim == 1) {
    // Contiguous fast path: the feature map reduces to one affine cosine
    // sweep per sample.
    std::vector<double> xs(x.size());
    std::vector<double> ys(y.size());
    for (size_t i = 0; i < x.size(); ++i) xs[i] = x[i][0];
    for (size_t i = 0; i < y.size(); ++i) ys[i] = y[i][0];
    return Rff1dCore(xs, ys, sigma, options);
  }
  const double nx = static_cast<double>(x.size());
  const double ny = static_cast<double>(y.size());
  const double total = SumFeatureDiffSquared(
      options.num_features, [&](size_t j) {
        Rng rng(StreamSeed(options.seed, j));
        std::vector<double> w(dim);
        for (double& wd : w) wd = rng.Normal() / sigma;
        const double b = rng.Uniform() * kTwoPi;
        std::vector<double> args(std::max(x.size(), y.size()));
        for (size_t i = 0; i < x.size(); ++i) {
          double dot = b;
          for (size_t d = 0; d < dim; ++d) dot += w[d] * x[i][d];
          args[i] = dot;
        }
        const double sum_x = simd::CosSum(args.data(), x.size());
        for (size_t i = 0; i < y.size(); ++i) {
          double dot = b;
          for (size_t d = 0; d < dim; ++d) dot += w[d] * y[i][d];
          args[i] = dot;
        }
        const double sum_y = simd::CosSum(args.data(), y.size());
        return sum_x / nx - sum_y / ny;
      });
  return 2.0 * total / static_cast<double>(options.num_features);
}

Result<double> MmdSquaredUnbiased1d(std::span<const double> x,
                                    std::span<const double> y,
                                    double sigma) {
  std::vector<Point> px = Lift(x);
  std::vector<Point> py = Lift(y);
  return MmdSquaredUnbiased(px, py, sigma);
}

Result<double> MmdSquaredBiased1d(std::span<const double> x,
                                  std::span<const double> y,
                                  double sigma) {
  std::vector<Point> px = Lift(x);
  std::vector<Point> py = Lift(y);
  return MmdSquaredBiased(px, py, sigma);
}

Result<double> MmdSquaredRff1d(std::span<const double> x,
                               std::span<const double> y, double sigma,
                               const MmdRffOptions& options) {
  FAIRLAW_RETURN_NOT_OK(CheckRffArgs(x.size(), y.size(), sigma, options));
  obs::TraceSpan span("mmd/rff");
  RecordRffProbes(options);
  return Rff1dCore(x, y, sigma, options);
}

}  // namespace fairlaw::stats
