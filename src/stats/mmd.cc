#include "stats/mmd.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
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

/// Raw kernel sums over all (i, j) pairs, block-tiled over rows: each
/// x-row block accumulates its kxx and kxy contributions, each y-row
/// block its kyy contribution, and the block sums are added in block
/// order.
KernelSums TiledKernelSums(std::span<const Point> x, std::span<const Point> y,
                           double sigma) {
  KernelSums sums;
  for (size_t begin = 0; begin < x.size(); begin += kRowBlock) {
    const size_t end = std::min(x.size(), begin + kRowBlock);
    double acc_xx = 0.0;
    double acc_xy = 0.0;
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < x.size(); ++j) {
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
    return Status::Invalid("MmdSquaredRff1d: needs non-empty samples");
  }
  if (sigma <= 0.0) return Status::Invalid("MMD: sigma must be positive");
  if (options.num_features == 0) {
    return Status::Invalid("MmdSquaredRff1d: num_features must be >= 1");
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
}

/// cos(arg): Cody–Waite reduction modulo 2*pi, then the Taylor series
/// of cos to u^10 in u = r^2 (Horner), whose remainder at |r| = pi is
/// below 1e-10.
[[gnu::always_inline]] inline double PolyCos(double arg) {
  constexpr double kInvTwoPi = 0x1.45f306dc9c883p-3;
  // 2*pi split into a high part exact in 27 bits and two tails, so
  // arg - k*2pi keeps full precision for |k| up to ~2^26.
  constexpr double kTwoPiHi = 0x1.921fb54p+2;
  constexpr double kTwoPiMid = 0x1.10b46118p-28;
  constexpr double kTwoPiLo = 0x1.313198a2e037p-59;
  // Adding and subtracting 1.5 * 2^52 rounds to the nearest integer
  // (ties to even) for |value| < 2^51.
  constexpr double kRoundShift = 0x1.8p52;
  const double k = (arg * kInvTwoPi + kRoundShift) - kRoundShift;
  double r = arg - k * kTwoPiHi;
  r -= k * kTwoPiMid;
  r -= k * kTwoPiLo;
  const double u = r * r;
  double poly = 4.1103176233121648e-19;
  poly = poly * u - 1.5619206968586225e-16;
  poly = poly * u + 4.7794773323873853e-14;
  poly = poly * u - 1.1470745597729725e-11;
  poly = poly * u + 2.0876756987868099e-9;
  poly = poly * u - 2.7557319223985891e-7;
  poly = poly * u + 2.4801587301587302e-5;
  poly = poly * u - 1.3888888888888889e-3;
  poly = poly * u + 4.1666666666666666e-2;
  poly = poly * u - 0.5;
  poly = poly * u + 1.0;
  return poly;
}

/// The CosSumAffine body. Four accumulators take the elements by
/// i % 4 and are added (a0 + a1) + (a2 + a3), so the grouping is fixed
/// and the compiler can keep the four in one vector register.
[[gnu::always_inline]] inline double CosSumAffineBody(
    std::span<const double> x, double scale, double offset) {
  const double* data = x.data();
  const size_t n = x.size();
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t lane = 0; lane < 4; ++lane) {
      acc[lane] += PolyCos(scale * data[i + lane] + offset);
    }
  }
  double total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; i < n; ++i) total += PolyCos(scale * data[i] + offset);
  return total;
}

/// RFF core over contiguous 1-D samples (validated by the caller).
/// Feature j draws its frequency w ~ N(0, 1/sigma^2) and phase
/// b ~ U[0, 2pi) from its own counter-seeded stream, then the feature-map
/// means are cosine sums over the raw inputs — one affine cosine sweep
/// per sample.
double Rff1dCore(std::span<const double> x, std::span<const double> y,
                 double sigma, const MmdRffOptions& options) {
  const double nx = static_cast<double>(x.size());
  const double ny = static_cast<double>(y.size());
  const double total = SumFeatureDiffSquared(
      options.num_features, [&](size_t j) {
        Rng rng(StreamSeed(options.seed, j));
        const double w = rng.Normal() / sigma;
        const double b = rng.Uniform() * kTwoPi;
        const double sum_x = CosSumAffine(x, w, b);
        const double sum_y = CosSumAffine(y, w, b);
        return sum_x / nx - sum_y / ny;
      });
  return 2.0 * total / static_cast<double>(options.num_features);
}

}  // namespace

#if defined(__x86_64__)
/// The same body compiled for AVX2 and FMA, called only on a CPU that
/// has both.
[[gnu::target("arch=x86-64-v3")]] static double CosSumAffineV3(
    std::span<const double> x, double scale, double offset) {
  return CosSumAffineBody(x, scale, offset);
}

double CosSumAffine(std::span<const double> x, double scale, double offset) {
  // Asked once per process.
  static const bool has_v3 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has_v3 ? CosSumAffineV3(x, scale, offset)
                : CosSumAffineBody(x, scale, offset);
}
#else
double CosSumAffine(std::span<const double> x, double scale, double offset) {
  return CosSumAffineBody(x, scale, offset);
}
#endif

double RbfKernel(const Point& x, const Point& y, double sigma) {
  return std::exp(-SquaredDistance(x, y) / (2.0 * sigma * sigma));
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
  const KernelSums sums = TiledKernelSums(x, y, sigma);
  return std::max(0.0, sums.kxx / (nx * nx) + sums.kyy / (ny * ny) -
                           2.0 * sums.kxy / (nx * ny));
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
