// Equivalence tests for the sanctioned SIMD wrapper (base/simd.h): the
// dispatch kernel against the scalar reference namespace. On a scalar
// build the comparison is trivially scalar-vs-scalar, which is exactly
// the point: the same suite must pass on every backend.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/simd.h"
#include "stats/rng.h"

namespace fairlaw {
namespace {

using stats::Rng;

// The float kernels are deterministic within a build but carry a
// tolerance across backends: the vectorized cosine is a polynomial
// approximation, accurate to ~1e-10 per element.
TEST(SimdTest, CosSumAffineWithinToleranceOfScalar) {
  Rng rng(0x106);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{5}, size_t{4096}}) {
    std::vector<double> xs(n);
    for (double& v : xs) v = rng.Normal(0.0, 3.0);
    const double scale = 2.75;
    const double offset = 1.25;
    const double vectorized =
        simd::CosSumAffine(xs.data(), n, scale, offset);
    const double reference =
        simd::scalar::CosSumAffine(xs.data(), n, scale, offset);
    EXPECT_NEAR(vectorized, reference,
                1e-9 * static_cast<double>(n + 1))
        << "n=" << n;
  }
}

// Calling the dispatch kernel twice on the same input must return the
// same bits — no internal state, no input-dependent control flow.
TEST(SimdTest, KernelsArePureFunctions) {
  std::vector<double> xs(513);
  Rng rng(0x202);
  for (double& v : xs) v = rng.Normal(0.0, 10.0);
  const double first = simd::CosSumAffine(xs.data(), xs.size(), 1.5, 0.25);
  const double second = simd::CosSumAffine(xs.data(), xs.size(), 1.5, 0.25);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace fairlaw
