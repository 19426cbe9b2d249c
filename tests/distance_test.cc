#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "stats/distance.h"
#include "stats/histogram.h"
#include "stats/rng.h"

namespace fairlaw::stats {
namespace {

using V = std::vector<double>;

TEST(TotalVariationTest, IdenticalIsZero) {
  std::vector<double> p = {0.25, 0.25, 0.5};
  EXPECT_DOUBLE_EQ(TotalVariation(p, p).ValueOrDie(), 0.0);
}

TEST(TotalVariationTest, DisjointIsOne) {
  std::vector<double> p = {1.0, 0.0};
  std::vector<double> q = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(TotalVariation(p, q).ValueOrDie(), 1.0);
}

TEST(TotalVariationTest, KnownValue) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {0.8, 0.2};
  EXPECT_NEAR(TotalVariation(p, q).ValueOrDie(), 0.3, 1e-12);
}

TEST(TotalVariationTest, RejectsMismatchedOrNegative) {
  EXPECT_FALSE(TotalVariation(V{0.5}, V{0.5, 0.5}).ok());
  EXPECT_FALSE(TotalVariation(V{-0.1, 1.1}, V{0.5, 0.5}).ok());
  EXPECT_FALSE(TotalVariation(V{}, V{}).ok());
}

TEST(HellingerTest, BoundsAndKnownValues) {
  std::vector<double> p = {1.0, 0.0};
  std::vector<double> q = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(Hellinger(p, p).ValueOrDie(), 0.0);
  EXPECT_DOUBLE_EQ(Hellinger(p, q).ValueOrDie(), 1.0);
  // H^2 = 1 - sum sqrt(p q); for p=(.5,.5), q=(.9,.1):
  std::vector<double> a = {0.5, 0.5};
  std::vector<double> b = {0.9, 0.1};
  double bc = std::sqrt(0.45) + std::sqrt(0.05);
  EXPECT_NEAR(Hellinger(a, b).ValueOrDie(), std::sqrt(1.0 - bc), 1e-12);
}

TEST(Wasserstein1Test, PointMassShift) {
  // Two point masses distance d apart: W1 = d.
  std::vector<double> x = {0.0, 0.0, 0.0};
  std::vector<double> y = {2.5, 2.5, 2.5};
  EXPECT_NEAR(Wasserstein1Samples(x, y).ValueOrDie(), 2.5, 1e-12);
}

TEST(Wasserstein1Test, LocationShiftEqualsShift) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(Wasserstein1Samples(x, y).ValueOrDie(), 1.0, 1e-12);
}

TEST(Wasserstein1Test, DifferentSampleSizes) {
  std::vector<double> x = {0.0, 1.0};        // uniform on {0,1}
  std::vector<double> y = {0.0, 0.5, 1.0};   // uniform on {0,.5,1}
  double d = Wasserstein1Samples(x, y).ValueOrDie();
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 0.25);
}

TEST(Wasserstein1Test, SymmetryAndIdentity) {
  Rng rng(5);
  std::vector<double> x(100);
  std::vector<double> y(80);
  for (double& v : x) v = rng.Normal();
  for (double& v : y) v = rng.Normal(1.0, 2.0);
  double xy = Wasserstein1Samples(x, y).ValueOrDie();
  double yx = Wasserstein1Samples(y, x).ValueOrDie();
  EXPECT_NEAR(xy, yx, 1e-12);
  EXPECT_NEAR(Wasserstein1Samples(x, x).ValueOrDie(), 0.0, 1e-12);
}

TEST(Wasserstein1Test, GaussianShiftConverges) {
  // W1 between N(0,1) and N(mu,1) is |mu|.
  Rng rng(71);
  const size_t n = 20000;
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal(1.5, 1.0);
  }
  EXPECT_NEAR(Wasserstein1Samples(x, y).ValueOrDie(), 1.5, 0.05);
}

TEST(KolmogorovSmirnovTest, KnownValues) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov(x, x).ValueOrDie(), 0.0);
  std::vector<double> y = {10.0, 11.0};
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov(x, y).ValueOrDie(), 1.0);
  // Half-overlapping.
  std::vector<double> z = {3.5, 4.5};
  double ks = KolmogorovSmirnov(x, z).ValueOrDie();
  EXPECT_GT(ks, 0.5);
  EXPECT_LE(ks, 1.0);
}

// Property sweep: metric axioms on random distributions.
class DistancePropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<double> RandomSimplex(Rng* rng, size_t k) {
  std::vector<double> p(k);
  double total = 0.0;
  for (double& v : p) {
    v = rng->Exponential(1.0);
    total += v;
  }
  for (double& v : p) v /= total;
  return p;
}

TEST_P(DistancePropertyTest, AxiomsHold) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    size_t k = 2 + rng.UniformInt(6);
    std::vector<double> p = RandomSimplex(&rng, k);
    std::vector<double> q = RandomSimplex(&rng, k);
    std::vector<double> r = RandomSimplex(&rng, k);

    double tv_pq = TotalVariation(p, q).ValueOrDie();
    double tv_qp = TotalVariation(q, p).ValueOrDie();
    double tv_pr = TotalVariation(p, r).ValueOrDie();
    double tv_rq = TotalVariation(r, q).ValueOrDie();
    EXPECT_NEAR(tv_pq, tv_qp, 1e-12);              // symmetry
    EXPECT_GE(tv_pq, 0.0);                         // non-negativity
    EXPECT_LE(tv_pq, 1.0);                         // boundedness
    EXPECT_LE(tv_pq, tv_pr + tv_rq + 1e-12);       // triangle inequality

    double h_pq = Hellinger(p, q).ValueOrDie();
    double h_qp = Hellinger(q, p).ValueOrDie();
    double h_pr = Hellinger(p, r).ValueOrDie();
    double h_rq = Hellinger(r, q).ValueOrDie();
    EXPECT_NEAR(h_pq, h_qp, 1e-12);
    EXPECT_GE(h_pq, 0.0);
    EXPECT_LE(h_pq, 1.0);
    EXPECT_LE(h_pq, h_pr + h_rq + 1e-9);

    // Pinsker-flavored cross-bounds: H^2 <= TV <= sqrt(2) H.
    EXPECT_LE(h_pq * h_pq, tv_pq + 1e-9);
    EXPECT_LE(tv_pq, std::sqrt(2.0) * h_pq + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistancePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- presorted fast paths -------------------------------------------------

std::vector<double> DrawSample(uint64_t seed, size_t n, double mean) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Normal(mean, 1.0);
  return v;
}

TEST(PresortedTest, ExactlyEqualsSortingVariant) {
  std::vector<double> x = DrawSample(41, 257, 0.0);
  std::vector<double> y = DrawSample(42, 193, 1.0);
  const double w1 = Wasserstein1Samples(x, y).ValueOrDie();
  const double ks = KolmogorovSmirnov(x, y).ValueOrDie();
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  EXPECT_EQ(Wasserstein1Presorted(x, y).ValueOrDie(), w1);
  EXPECT_EQ(KolmogorovSmirnovPresorted(x, y).ValueOrDie(), ks);
}

TEST(PresortedTest, RejectsUnsortedAndEmpty) {
  std::vector<double> sorted = {0.0, 1.0, 2.0};
  std::vector<double> unsorted = {2.0, 0.0, 1.0};
  EXPECT_FALSE(Wasserstein1Presorted(unsorted, sorted).ok());
  EXPECT_FALSE(Wasserstein1Presorted(sorted, unsorted).ok());
  EXPECT_FALSE(Wasserstein1Presorted({}, sorted).ok());
  EXPECT_FALSE(KolmogorovSmirnovPresorted(unsorted, sorted).ok());
  EXPECT_FALSE(KolmogorovSmirnovPresorted(sorted, {}).ok());
}

TEST(PresortedTest, TiesAndEqualSamplesHandled) {
  std::vector<double> ties = {1.0, 1.0, 1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(Wasserstein1Presorted(ties, ties).ValueOrDie(), 0.0);
  EXPECT_DOUBLE_EQ(KolmogorovSmirnovPresorted(ties, ties).ValueOrDie(),
                   0.0);
}

// --- presorted kernels over a SortedDifference -----------------------------

/// `values` as an AscendingSpan; it must be sorted.
AscendingSpan Ascending(const V& values) {
  return AscendingSpan::Make(values, "values").ValueOrDie();
}

/// Each group of `groups` (a partition of the pooled values) against
/// everyone else, as the score-distribution audit compares them: W1 and
/// KS from the one walk of the SortedDifference must equal the span
/// kernels over the materialized std::set_difference, to the bit, or
/// fail as they do.
void ExpectWalkEqualsMaterialized(const std::vector<V>& groups,
                                  const std::string& label) {
  V all;
  for (const V& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  std::sort(all.begin(), all.end());
  for (size_t g = 0; g < groups.size(); ++g) {
    V group = groups[g];
    std::sort(group.begin(), group.end());
    V rest;
    std::set_difference(all.begin(), all.end(), group.begin(), group.end(),
                        std::back_inserter(rest));
    const SortedDifference walk(Ascending(all), Ascending(group));
    ASSERT_EQ(walk.size(), rest.size()) << label << " group " << g;
    const Result<double> w1 = Wasserstein1Presorted(group, rest);
    const Result<double> ks = KolmogorovSmirnovPresorted(group, rest);
    const Result<SampleDistances> both =
        Wasserstein1AndKsPresorted(Ascending(group), walk, "");
    ASSERT_EQ(both.ok(), w1.ok()) << label << " group " << g;
    ASSERT_EQ(both.ok(), ks.ok()) << label << " group " << g;
    if (!both.ok()) {
      EXPECT_EQ(both.status().ToString(),
                "invalid argument: Wasserstein1AndKsPresorted: empty sample")
          << label << " group " << g;
      continue;
    }
    EXPECT_EQ(both->wasserstein1, *w1) << label << " group " << g;
    EXPECT_EQ(both->ks, *ks) << label << " group " << g;
  }
}

TEST(SortedDifferenceTest, WalkIsTheSetDifference) {
  const V all = {1, 1, 1, 2, 2, 3, 5, 5};
  const V removed = {1, 2, 2, 5};
  const SortedDifference difference(Ascending(all), Ascending(removed));
  V walked;
  SortedDifference::Walk walk(difference);
  for (size_t i = 0; i < difference.size(); ++i, walk.Step()) {
    walked.push_back(walk.value());
  }
  EXPECT_EQ(walked, (V{1, 1, 3, 5}));
}

TEST(SortedDifferenceTest, TiesWithinAndAcrossGroups) {
  ExpectWalkEqualsMaterialized(
      {{1, 1, 2, 3, 3}, {1, 2, 2, 3, 4, 4}, {3, 3, 4, 0.5, 1}}, "ties");
}

TEST(SortedDifferenceTest, OneRowGroupAndAGroupOfEveryRow) {
  ExpectWalkEqualsMaterialized({{0.25}, {0.5, 0.75, 0.25, 1.0}}, "one row");
  // The whole pool: everyone else is empty, and both paths say so.
  ExpectWalkEqualsMaterialized({{0.1, 0.2, 0.2, 0.9}}, "every row");
}

TEST(SortedDifferenceTest, ConstantScores) {
  ExpectWalkEqualsMaterialized({V(5, 0.5), V(3, 0.5), V(1, 0.5)},
                               "constant");
}

TEST(SortedDifferenceTest, SeededGroupsWithManyTies) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<V> groups(5);
    for (int i = 0; i < 3000; ++i) {
      // Quarter steps: most values repeat within and across groups.
      const double value = std::round(rng.Normal(0.0, 1.0) * 4.0) / 4.0;
      groups[rng.UniformInt(groups.size())].push_back(value);
    }
    ExpectWalkEqualsMaterialized(groups, "seed " + std::to_string(seed));
  }
}

TEST(SortedDifferenceTest, InterleavedAndSeparatedGroups) {
  // Groups that lie wholly below, above, inside and across the others,
  // with signed zeros: the KS sweep ends on either side first, and a
  // pending threshold is scored at a larger value or at the end.
  ExpectWalkEqualsMaterialized({{-3, -2, -1}, {1, 2, 3}, {-0.0, 0.0, 0.0}},
                               "separated");
  ExpectWalkEqualsMaterialized({{1, 3, 5, 7}, {2, 4, 6, 8}, {4, 4, 4}},
                               "interleaved");
  ExpectWalkEqualsMaterialized({{5}, {1, 2, 3, 4}, {6, 7}}, "one above");
  for (uint64_t seed : {4u, 5u}) {
    Rng rng(seed);
    std::vector<V> groups(7);
    for (int i = 0; i < 2000; ++i) {
      const size_t g = rng.UniformInt(groups.size());
      // Shifted groups with unit steps: long runs of equal values.
      groups[g].push_back(std::round(rng.Normal(static_cast<double>(g), 2.0)));
    }
    ExpectWalkEqualsMaterialized(groups, "shifted " + std::to_string(seed));
    for (V& group : groups) {
      for (double& value : group) value += rng.Uniform();  // no ties
    }
    ExpectWalkEqualsMaterialized(groups, "distinct " + std::to_string(seed));
  }
}

TEST(SortedDifferenceTest, EachBufferIsCheckedOnceAndEmptinessByTheKernel) {
  const V sorted = {0.0, 1.0, 2.0, 3.0};
  const V unsorted = {2.0, 0.0, 1.0, 3.0};
  EXPECT_EQ(AscendingSpan::Make(unsorted, "pool").status().ToString(),
            "invalid argument: pool is not sorted ascending");
  EXPECT_TRUE(AscendingSpan::Make(V{}, "empty").ok());
  EXPECT_EQ(Wasserstein1AndKsPresorted(
                Ascending(V{}), SortedDifference(Ascending(sorted),
                                                 Ascending(V{1.0})),
                "")
                .status()
                .ToString(),
            "invalid argument: Wasserstein1AndKsPresorted: empty sample");
  EXPECT_FALSE(Wasserstein1AndKsPresorted(
                   Ascending(sorted),
                   SortedDifference(Ascending(sorted), Ascending(sorted)), "")
                   .ok());
}

// --- binned fast paths ----------------------------------------------------

TEST(BinnedTest, ApproximatesSampleDistanceWithinBinWidth) {
  const std::vector<double> x = DrawSample(43, 4000, 0.0);
  const std::vector<double> y = DrawSample(44, 4000, 1.0);
  const double exact_w1 = Wasserstein1Samples(x, y).ValueOrDie();

  const double lo = -5.0;
  const double hi = 6.0;
  const size_t bins = 200;
  Histogram hx = Histogram::Make(lo, hi, bins).ValueOrDie();
  Histogram hy = Histogram::Make(lo, hi, bins).ValueOrDie();
  hx.AddAll(x);
  hy.AddAll(y);
  const double width = (hi - lo) / static_cast<double>(bins);
  EXPECT_NEAR(Wasserstein1Binned(hx, hy).ValueOrDie(), exact_w1, width);
}

TEST(BinnedTest, IdenticalHistogramsAreZero) {
  Histogram h = Histogram::Make(0.0, 1.0, 10).ValueOrDie();
  h.AddAll(std::vector<double>{0.1, 0.5, 0.9});
  EXPECT_DOUBLE_EQ(Wasserstein1Binned(h, h).ValueOrDie(), 0.0);
}

TEST(BinnedTest, RejectsMisalignedHistograms) {
  Histogram a = Histogram::Make(0.0, 1.0, 10).ValueOrDie();
  Histogram wrong_bins = Histogram::Make(0.0, 1.0, 20).ValueOrDie();
  Histogram wrong_range = Histogram::Make(0.0, 2.0, 10).ValueOrDie();
  a.AddAll(std::vector<double>{0.5});
  wrong_bins.AddAll(std::vector<double>{0.5});
  wrong_range.AddAll(std::vector<double>{0.5});
  EXPECT_FALSE(Wasserstein1Binned(a, wrong_bins).ok());
  EXPECT_FALSE(Wasserstein1Binned(a, wrong_range).ok());
}

}  // namespace
}  // namespace fairlaw::stats
