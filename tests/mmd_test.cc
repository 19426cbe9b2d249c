#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/mmd.h"
#include "stats/rng.h"

namespace fairlaw::stats {
namespace {

std::vector<double> Draw(Rng* rng, size_t n, double mean, double stddev) {
  std::vector<double> values(n);
  for (double& v : values) v = rng->Normal(mean, stddev);
  return values;
}

TEST(RbfKernelTest, KnownValues) {
  Point x = {0.0};
  Point y = {1.0};
  EXPECT_DOUBLE_EQ(RbfKernel(x, x, 1.0), 1.0);
  EXPECT_NEAR(RbfKernel(x, y, 1.0), std::exp(-0.5), 1e-12);
  // Larger bandwidth -> larger similarity.
  EXPECT_GT(RbfKernel(x, y, 2.0), RbfKernel(x, y, 1.0));
}

TEST(MmdTest, IdenticalDistributionsNearZero) {
  Rng rng(5);
  std::vector<double> x = Draw(&rng, 300, 0.0, 1.0);
  std::vector<double> y = Draw(&rng, 300, 0.0, 1.0);
  double mmd2 = MmdSquaredBiased1d(x, y, 1.0).ValueOrDie();
  EXPECT_NEAR(mmd2, 0.0, 0.02);
}

TEST(MmdTest, SeparatedDistributionsPositive) {
  Rng rng(7);
  std::vector<double> x = Draw(&rng, 300, 0.0, 1.0);
  std::vector<double> y = Draw(&rng, 300, 3.0, 1.0);
  double mmd2 = MmdSquaredBiased1d(x, y, 1.0).ValueOrDie();
  EXPECT_GT(mmd2, 0.3);
}

TEST(MmdTest, BiasedEstimatorNonNegative) {
  Rng rng(9);
  std::vector<double> x = Draw(&rng, 100, 0.0, 1.0);
  std::vector<double> y = Draw(&rng, 100, 0.0, 1.0);
  EXPECT_GE(MmdSquaredBiased1d(x, y, 1.0).ValueOrDie(), 0.0);
}

TEST(MmdTest, MonotoneInSeparation) {
  Rng rng(11);
  std::vector<double> x = Draw(&rng, 200, 0.0, 1.0);
  std::vector<double> near = Draw(&rng, 200, 0.5, 1.0);
  std::vector<double> far = Draw(&rng, 200, 2.0, 1.0);
  double mmd_near = MmdSquaredBiased1d(x, near, 1.0).ValueOrDie();
  double mmd_far = MmdSquaredBiased1d(x, far, 1.0).ValueOrDie();
  EXPECT_LT(mmd_near, mmd_far);
}

TEST(MmdTest, InputValidation) {
  std::vector<double> two = {1.0, 2.0};
  EXPECT_FALSE(MmdSquaredBiased1d(two, two, 0.0).ok());  // bad sigma
  EXPECT_FALSE(MmdSquaredBiased1d({}, two, 1.0).ok());
}

TEST(MmdRffTest, NonNegativeAndSeedSensitive) {
  Rng rng(21);
  std::vector<double> x = Draw(&rng, 200, 0.0, 1.0);
  std::vector<double> y = Draw(&rng, 200, 0.0, 1.0);
  MmdRffOptions options;
  options.num_features = 64;
  const double estimate = MmdSquaredRff1d(x, y, 1.0, options).ValueOrDie();
  EXPECT_GE(estimate, 0.0);
  MmdRffOptions reseeded = options;
  reseeded.seed = 0x9999;
  // A different seed draws different features; on close distributions
  // the small-D estimates differ.
  EXPECT_NE(MmdSquaredRff1d(x, y, 1.0, reseeded).ValueOrDie(), estimate);
}

// Convergence to the exact oracle: error decays as O(1/sqrt(D)), so the
// D = 2048 estimate must land much closer than the D = 32 one, and
// within a calibrated absolute band.
TEST(MmdRffTest, ConvergesToExactBiasedEstimator) {
  Rng rng(23);
  std::vector<double> x = Draw(&rng, 500, 0.0, 1.0);
  std::vector<double> y = Draw(&rng, 500, 1.0, 1.0);
  const double exact = MmdSquaredBiased1d(x, y, 1.0).ValueOrDie();

  MmdRffOptions small;
  small.num_features = 32;
  MmdRffOptions large;
  large.num_features = 2048;
  const double err_small =
      std::abs(MmdSquaredRff1d(x, y, 1.0, small).ValueOrDie() - exact);
  const double err_large =
      std::abs(MmdSquaredRff1d(x, y, 1.0, large).ValueOrDie() - exact);
  EXPECT_LT(err_large, 0.02);
  EXPECT_LT(err_large, err_small + 1e-12);
}

TEST(MmdRffTest, RffInputValidation) {
  std::vector<double> two = {1.0, 2.0};
  MmdRffOptions no_features;
  no_features.num_features = 0;
  EXPECT_FALSE(MmdSquaredRff1d(two, two, 1.0, no_features).ok());
  EXPECT_FALSE(MmdSquaredRff1d(two, two, 0.0).ok());
  EXPECT_FALSE(MmdSquaredRff1d({}, two, 1.0).ok());
}

double StdCosSum(const std::vector<double>& x, double scale, double offset) {
  double total = 0.0;
  for (const double v : x) total += std::cos(scale * v + offset);
  return total;
}

// The kernel's cosine is a polynomial accurate to ~1e-10 per element, so
// the sum stays within 1e-9 per element of a std::cos loop. The sizes
// cover the empty input, a tail alone, one full group of four, and both;
// scale 800 takes arguments to ~1e4, where the range reduction wraps
// ~1600 times.
TEST(CosSumAffineTest, WithinToleranceOfStdCos) {
  for (const double scale : {2.75, 800.0}) {
    Rng rng(0x106);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                           size_t{5}, size_t{4096}}) {
      std::vector<double> xs = Draw(&rng, n, 0.0, 3.0);
      EXPECT_NEAR(CosSumAffine(xs, scale, 1.25), StdCosSum(xs, scale, 1.25),
                  1e-9 * static_cast<double>(n + 1))
          << "scale=" << scale << " n=" << n;
    }
  }
}

// Calling the kernel twice on the same input returns the same bits: no
// internal state, no input-dependent control flow.
TEST(CosSumAffineTest, IsAPureFunction) {
  Rng rng(0x202);
  const std::vector<double> xs = Draw(&rng, 513, 0.0, 10.0);
  EXPECT_EQ(CosSumAffine(xs, 1.5, 0.25), CosSumAffine(xs, 1.5, 0.25));
}

}  // namespace
}  // namespace fairlaw::stats
