// Equivalence tests for the sanctioned SIMD wrapper (base/simd.h).
//
// The integer kernels carry a byte-identical contract: whatever backend
// the build selected must return exactly the scalar reference result on
// every input, including the ragged tails the vector loops peel off.
// The tests run the dispatch kernel against the scalar namespace on the
// edge sizes the Bitmap invariants care about (0, 1, 63, 64, 65, 8191
// bits) plus word counts straddling the 4-word vector width. On a
// scalar build the comparison is trivially scalar-vs-scalar, which is
// exactly the point: the same suite must pass on every backend.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "base/simd.h"
#include "data/bitmap.h"
#include "stats/rng.h"

namespace fairlaw {
namespace {

using data::Bitmap;
using stats::Rng;

std::vector<uint64_t> RandomWords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) w = rng.Next();
  return words;
}

// Word counts covering: empty, sub-vector tails, the exact 4-word vector
// width, one past it, and a large buffer with a ragged tail.
const size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 127, 128, 129};

TEST(SimdTest, PopcountMatchesScalarAtEveryWordCount) {
  for (const size_t n : kWordCounts) {
    const std::vector<uint64_t> a = RandomWords(n, 0xA0 + n);
    EXPECT_EQ(simd::PopcountWords(a.data(), n),
              simd::scalar::PopcountWords(a.data(), n))
        << "n=" << n << " backend=" << simd::kBackendName;
  }
}

TEST(SimdTest, FusedKernelsMatchScalarAtEveryWordCount) {
  for (const size_t n : kWordCounts) {
    const std::vector<uint64_t> a = RandomWords(n, 0xB0 + n);
    const std::vector<uint64_t> b = RandomWords(n, 0xC0 + n);
    EXPECT_EQ(simd::AndPopcountWords(a.data(), b.data(), n),
              simd::scalar::AndPopcountWords(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(SimdTest, AndIntoMatchesScalarResultAndWrites) {
  for (const size_t n : kWordCounts) {
    const std::vector<uint64_t> a = RandomWords(n, 0xE0 + n);
    const std::vector<uint64_t> b = RandomWords(n, 0xF0 + n);
    std::vector<uint64_t> dst_simd(n, 0);
    std::vector<uint64_t> dst_scalar(n, 0);
    const uint64_t count_simd =
        simd::AndIntoPopcountWords(a.data(), b.data(), dst_simd.data(), n);
    const uint64_t count_scalar = simd::scalar::AndIntoPopcountWords(
        a.data(), b.data(), dst_scalar.data(), n);
    EXPECT_EQ(count_simd, count_scalar) << "n=" << n;
    EXPECT_EQ(dst_simd, dst_scalar) << "n=" << n;
  }
}

// Bitmap-level equivalence at the bit sizes where tail masking matters:
// the fused kernels must agree with a bit-at-a-time reference count.
TEST(SimdTest, BitmapFusedKernelsMatchReferenceAtEdgeSizes) {
  for (const size_t bits : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                            size_t{65}, size_t{8191}}) {
    Rng rng(0x51 + bits);
    Bitmap a(bits);
    Bitmap b(bits);
    for (size_t i = 0; i < bits; ++i) {
      if ((rng.Next() & 1) != 0) a.Set(i);
      if ((rng.Next() & 1) != 0) b.Set(i);
    }
    size_t and_ref = 0;
    for (size_t i = 0; i < bits; ++i) {
      if (a.Test(i) && b.Test(i)) ++and_ref;
    }
    EXPECT_EQ(Bitmap::AndCount(a, b), and_ref) << "bits=" << bits;
  }
}

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
  const std::vector<uint64_t> a = RandomWords(129, 0x200);
  const std::vector<uint64_t> b = RandomWords(129, 0x201);
  EXPECT_EQ(simd::AndPopcountWords(a.data(), b.data(), a.size()),
            simd::AndPopcountWords(a.data(), b.data(), a.size()));
  std::vector<double> xs(513);
  Rng rng(0x202);
  for (double& v : xs) v = rng.Normal(0.0, 10.0);
  const double first = simd::CosSumAffine(xs.data(), xs.size(), 1.5, 0.25);
  const double second = simd::CosSumAffine(xs.data(), xs.size(), 1.5, 0.25);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace fairlaw
