// Tests for the deterministic KLL quantile sketch (stats/kll.h): rank
// error against the exact empirical quantiles on large streams, the
// determinism contract (same operation sequence => member-for-member
// equal state, regardless of how Adds are batched), fixed-order merge
// identity, and the sketch distance kernels against the exact presorted
// W1/KS kernels within the sketch's error bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/distance.h"
#include "stats/kll.h"
#include "stats/rng.h"

namespace fairlaw {
namespace {

using stats::KllSketch;
using stats::Rng;

/// Exact empirical quantile of a sorted sample, mirroring the sketch's
/// convention: the smallest value whose cumulative count reaches q*n.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank > 0) --rank;
  if (rank >= n) rank = n - 1;
  return sorted[rank];
}

TEST(KllSketchTest, EmptyAndSingleton) {
  KllSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_FALSE(sketch.Quantile(0.5).ok());
  EXPECT_FALSE(sketch.Cdf(0.0).ok());

  sketch.Add(3.5);
  EXPECT_EQ(sketch.count(), 1u);
  ASSERT_TRUE(sketch.Quantile(0.0).ok());
  EXPECT_DOUBLE_EQ(*sketch.Quantile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(*sketch.Quantile(1.0), 3.5);
  EXPECT_FALSE(sketch.Quantile(-0.1).ok());
  EXPECT_FALSE(sketch.Quantile(1.1).ok());
}

TEST(KllSketchTest, SmallStreamIsExact) {
  // Below the compaction threshold nothing is ever discarded, so every
  // quantile must be exactly the empirical one.
  KllSketch sketch;
  std::vector<double> values;
  for (int i = 99; i >= 0; --i) {
    sketch.Add(static_cast<double>(i));
    values.push_back(static_cast<double>(i));
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(sketch.num_retained(), 100u);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    ASSERT_TRUE(sketch.Quantile(q).ok());
    EXPECT_DOUBLE_EQ(*sketch.Quantile(q), ExactQuantile(values, q))
        << "q=" << q;
  }
}

/// The Add/Merge sequence ObservableStateIsPinned replays. Values are
/// multiples of 0.25 (exact in binary, and few enough that ties are
/// everywhere); the merges go both ways (deeper into shallower and the
/// reverse), and Adds after the last merge refill the low levels.
KllSketch PinnedSequence(uint32_t k) {
  auto value = [](uint32_t i, uint32_t mul, uint32_t mod) {
    return static_cast<double>((i * mul) % mod) * 0.25;
  };
  KllSketch::Options options;
  options.k = k;
  options.seed = 42;
  KllSketch a(options);
  KllSketch b(options);
  KllSketch c(options);
  for (uint32_t i = 0; i < 300; ++i) a.Add(value(i, 37, 11) - 1.0);
  for (uint32_t i = 0; i < 700; ++i) b.Add(value(i, 53, 7));
  for (uint32_t i = 0; i < 23; ++i) c.Add(value(i, 5, 9) + 0.5);
  a.Merge(b);
  c.Merge(a);
  for (uint32_t i = 0; i < 40; ++i) c.Add(value(i, 3, 13) - 0.5);
  c.Merge(b);
  for (uint32_t i = 0; i < 150; ++i) c.Add(value(i, 29, 17) - 2.0);
  return c;
}

TEST(KllSketchTest, ObservableStateIsPinned) {
  // Literal observable state after PinnedSequence. Every serve drift and
  // quantile byte derives from these observables, so a kernel change
  // that keeps them keeps the daemon's responses; one that moves a
  // single retained item or weight fails here first.
  struct Pinned {
    uint32_t k;
    uint64_t count;
    size_t retained;
    std::vector<double> quantiles;  // at q = 0, 0.1, 0.5, 0.9, 1
    std::vector<KllSketch::WeightedItem> items;
  };
  const std::vector<Pinned> pinned = {
      {8,
       1913,
       63,
       {-2, 0, 0.75, 1.5, 2},
       {{-2, 2}, {-2, 2}, {-1.75, 1}, {-1.75, 2}, {-1.75, 2}, {-1.75, 4},
        {-1.5, 2}, {-1.5, 2}, {-1.5, 4}, {-1.5, 8}, {-1.25, 1},
        {-1.25, 2}, {-1, 2}, {-1, 2}, {-1, 2}, {-1, 8}, {-1, 32},
        {-0.75, 4}, {-0.5, 1}, {-0.5, 2}, {-0.5, 2}, {-0.5, 8},
        {-0.5, 64}, {-0.25, 2}, {-0.25, 2}, {-0.25, 8}, {0, 1}, {0, 2},
        {0, 4}, {0, 128}, {0, 128}, {0.25, 2}, {0.25, 2}, {0.25, 128},
        {0.25, 128}, {0.5, 2}, {0.5, 4}, {0.5, 8}, {0.5, 128}, {0.75, 2},
        {0.75, 2}, {0.75, 128}, {0.75, 128}, {1, 2}, {1, 2}, {1, 8},
        {1, 128}, {1, 128}, {1.25, 1}, {1.25, 2}, {1.25, 4}, {1.25, 128},
        {1.25, 128}, {1.5, 2}, {1.5, 2}, {1.5, 8}, {1.5, 128}, {1.75, 2},
        {1.75, 8}, {1.75, 128}, {2, 2}, {2, 2}, {2, 4}}},
      {13,
       1913,
       60,
       {-2, 0, 0.75, 1.5, 2},
       {{-2, 2}, {-2, 2}, {-1.75, 1}, {-1.75, 4}, {-1.75, 8}, {-1.5, 2},
        {-1.5, 8}, {-1.25, 1}, {-1.25, 2}, {-1.25, 8}, {-1, 32},
        {-0.75, 2}, {-0.75, 8}, {-0.5, 2}, {-0.5, 8}, {-0.25, 8},
        {-0.25, 8}, {-0.25, 64}, {0, 1}, {0, 2}, {0, 64}, {0, 64},
        {0, 64}, {0, 64}, {0.25, 2}, {0.25, 8}, {0.25, 8}, {0.25, 64},
        {0.25, 64}, {0.25, 64}, {0.5, 2}, {0.5, 8}, {0.5, 64}, {0.5, 64},
        {0.5, 64}, {0.75, 64}, {0.75, 64}, {0.75, 64}, {0.75, 64},
        {1, 2}, {1, 8}, {1, 64}, {1, 64}, {1, 64}, {1, 64}, {1.25, 2},
        {1.25, 8}, {1.25, 64}, {1.25, 64}, {1.25, 64}, {1.5, 2},
        {1.5, 8}, {1.5, 64}, {1.5, 64}, {1.5, 64}, {1.5, 64}, {1.75, 8},
        {2, 2}, {2, 8}, {2, 64}}},
      {40,
       1913,
       108,
       {-2, 0, 0.75, 1.5, 2.25},
       {{-2, 1}, {-2, 2}, {-2, 2}, {-2, 4}, {-1.75, 2}, {-1.75, 2},
        {-1.75, 4}, {-1.5, 2}, {-1.5, 4}, {-1.5, 4}, {-1.25, 1},
        {-1.25, 2}, {-1.25, 2}, {-1.25, 4}, {-1.25, 4}, {-1, 2}, {-1, 4},
        {-1, 32}, {-0.75, 2}, {-0.75, 2}, {-0.75, 4}, {-0.75, 32},
        {-0.5, 2}, {-0.5, 4}, {-0.5, 4}, {-0.5, 4}, {-0.5, 32},
        {-0.25, 2}, {-0.25, 2}, {-0.25, 4}, {0, 1}, {0, 2}, {0, 4},
        {0, 32}, {0, 32}, {0, 32}, {0, 32}, {0, 32}, {0, 32}, {0, 32},
        {0.25, 2}, {0.25, 4}, {0.25, 4}, {0.25, 32}, {0.25, 32},
        {0.25, 32}, {0.25, 32}, {0.25, 32}, {0.25, 32}, {0.25, 32},
        {0.5, 2}, {0.5, 2}, {0.5, 4}, {0.5, 32}, {0.5, 32}, {0.5, 32},
        {0.5, 32}, {0.5, 32}, {0.5, 32}, {0.5, 32}, {0.5, 32}, {0.75, 2},
        {0.75, 4}, {0.75, 4}, {0.75, 32}, {0.75, 32}, {0.75, 32},
        {0.75, 32}, {0.75, 32}, {0.75, 32}, {0.75, 32}, {0.75, 32},
        {1, 2}, {1, 2}, {1, 4}, {1, 32}, {1, 32}, {1, 32}, {1, 32},
        {1, 32}, {1, 32}, {1.25, 2}, {1.25, 4}, {1.25, 4}, {1.25, 32},
        {1.25, 32}, {1.25, 32}, {1.25, 32}, {1.25, 32}, {1.25, 32},
        {1.25, 32}, {1.25, 32}, {1.5, 2}, {1.5, 2}, {1.5, 4}, {1.5, 32},
        {1.5, 32}, {1.5, 32}, {1.5, 32}, {1.5, 32}, {1.5, 32}, {1.5, 32},
        {1.75, 4}, {1.75, 4}, {2, 2}, {2, 2}, {2, 4}, {2.25, 32}}},
  };
  const double qs[] = {0.0, 0.1, 0.5, 0.9, 1.0};
  for (const Pinned& expected : pinned) {
    const KllSketch sketch = PinnedSequence(expected.k);
    EXPECT_EQ(sketch.count(), expected.count) << "k=" << expected.k;
    EXPECT_EQ(sketch.num_retained(), expected.retained) << "k=" << expected.k;
    for (size_t i = 0; i < expected.quantiles.size(); ++i) {
      ASSERT_TRUE(sketch.Quantile(qs[i]).ok());
      EXPECT_EQ(*sketch.Quantile(qs[i]), expected.quantiles[i])
          << "k=" << expected.k << " q=" << qs[i];
    }
    EXPECT_EQ(sketch.SortedItems(), expected.items) << "k=" << expected.k;
  }
}

TEST(KllSketchTest, NegativeZeroIsStoredAsZero) {
  // -0.0 == +0.0, so a sorted level could hold the two in either order.
  // Add stores both as +0.0: sketches fed either sign are equal member
  // for member, and a zero answer always carries the +0.0 bit pattern.
  KllSketch::Options options;
  options.k = 8;  // small, so the zeros go through many compactions
  KllSketch mixed(options);
  KllSketch plain(options);
  for (int i = 0; i < 600; ++i) {
    double value = static_cast<double>(i % 7) - 3.0;
    double mixed_value = value;
    if (i % 3 == 0) {
      value = 0.0;
      mixed_value = (i % 2 == 0) ? -0.0 : 0.0;
    }
    mixed.Add(mixed_value);
    plain.Add(value);
  }
  EXPECT_TRUE(mixed == plain);
  ASSERT_TRUE(mixed.Quantile(0.5).ok());
  EXPECT_EQ(*mixed.Quantile(0.5), 0.0);
  EXPECT_FALSE(std::signbit(*mixed.Quantile(0.5)));
  for (const KllSketch::WeightedItem& item : mixed.SortedItems()) {
    EXPECT_FALSE(std::signbit(item.value) && item.value == 0.0);
  }

  KllSketch single;
  single.Add(-0.0);
  ASSERT_TRUE(single.Quantile(0.0).ok());
  EXPECT_FALSE(std::signbit(*single.Quantile(0.0)));
}

TEST(KllSketchTest, QuantileErrorBoundOnMillionDraws) {
  // 1e6 mixed-distribution draws; k=200 targets ~1% rank error. We
  // assert a conservative 3% rank-error bound: for each q, the sketch's
  // answer must lie between the exact (q +- 0.03) quantiles.
  Rng rng(7);
  KllSketch sketch;
  std::vector<double> values;
  values.reserve(1000000);
  for (size_t i = 0; i < 1000000; ++i) {
    const double v = (i % 3 == 0) ? rng.Normal(0.0, 1.0)
                                  : rng.Uniform(-2.0, 2.0);
    sketch.Add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(sketch.count(), values.size());
  // Retained memory stays O(k), not O(n).
  EXPECT_LT(sketch.num_retained(), 3000u);

  const double kRankTolerance = 0.03;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    ASSERT_TRUE(sketch.Quantile(q).ok());
    const double estimate = *sketch.Quantile(q);
    const double lo =
        ExactQuantile(values, std::max(0.0, q - kRankTolerance));
    const double hi =
        ExactQuantile(values, std::min(1.0, q + kRankTolerance));
    EXPECT_GE(estimate, lo) << "q=" << q;
    EXPECT_LE(estimate, hi) << "q=" << q;
  }

  // Cdf and Quantile must roughly invert each other.
  const double median = *sketch.Quantile(0.5);
  ASSERT_TRUE(sketch.Cdf(median).ok());
  EXPECT_NEAR(*sketch.Cdf(median), 0.5, 0.05);
}

TEST(KllSketchTest, StateIsPureFunctionOfOperationSequence) {
  // Two sketches fed the same items in the same order are equal
  // member-for-member — no matter that one "batch" paused halfway.
  // This is the property serve's batch-boundary identity rides on.
  Rng rng(11);
  std::vector<double> values;
  for (size_t i = 0; i < 50000; ++i) values.push_back(rng.Uniform());

  KllSketch a;
  KllSketch b;
  for (double v : values) a.Add(v);
  for (size_t i = 0; i < 17; ++i) b.Add(values[i]);
  for (size_t i = 17; i < values.size(); ++i) b.Add(values[i]);
  EXPECT_TRUE(a == b);

  // A different insertion order is allowed to differ — order is part of
  // the operation sequence, which is why every consumer fixes it.
  KllSketch c;
  for (size_t i = values.size(); i > 0; --i) c.Add(values[i - 1]);
  EXPECT_EQ(c.count(), a.count());
}

TEST(KllSketchTest, BucketedMergeIsDeterministicAndAccurate) {
  // Partition a stream into buckets, sketch each bucket, merge in
  // ascending bucket order — WindowRing::Window's shape. The merged
  // state is intentionally NOT identical to a single sequential sketch
  // (each bucket compacts on its own schedule); the contract is that
  // it is a pure function of the bucket states and the merge order
  // (rebuilding reproduces it member-for-member) and that its
  // quantiles stay within the sketch's rank-error bound of the exact
  // stream quantiles.
  Rng rng(13);
  std::vector<double> values;
  for (size_t i = 0; i < 40000; ++i) values.push_back(rng.Normal());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  for (size_t num_buckets : {2u, 7u, 16u}) {
    auto build = [&]() {
      std::vector<KllSketch> buckets(num_buckets);
      const size_t per = values.size() / num_buckets;
      for (size_t i = 0; i < values.size(); ++i) {
        buckets[std::min(i / per, num_buckets - 1)].Add(values[i]);
      }
      KllSketch merged;
      for (const KllSketch& bucket : buckets) merged.Merge(bucket);
      return merged;
    };
    const KllSketch merged = build();
    EXPECT_TRUE(merged == build()) << num_buckets << " buckets";
    EXPECT_EQ(merged.count(), values.size());
    for (double q : {0.1, 0.5, 0.9}) {
      ASSERT_TRUE(merged.Quantile(q).ok());
      const double estimate = *merged.Quantile(q);
      EXPECT_GE(estimate, ExactQuantile(sorted, std::max(0.0, q - 0.03)))
          << num_buckets << " buckets, q=" << q;
      EXPECT_LE(estimate, ExactQuantile(sorted, std::min(1.0, q + 0.03)))
          << num_buckets << " buckets, q=" << q;
    }
  }
}

TEST(KllSketchTest, MergePreservesTotalWeight) {
  Rng rng(17);
  KllSketch a;
  KllSketch b;
  for (size_t i = 0; i < 12345; ++i) a.Add(rng.Uniform());
  for (size_t i = 0; i < 6789; ++i) b.Add(rng.Uniform(1.0, 2.0));
  a.Merge(b);
  EXPECT_EQ(a.count(), 12345u + 6789u);
  uint64_t retained_weight = 0;
  for (const KllSketch::WeightedItem& item : a.SortedItems()) {
    retained_weight += item.weight;
  }
  EXPECT_EQ(retained_weight, a.count());
}

TEST(KllSketchTest, SketchDistancesAgreeWithExactKernels) {
  // Two clearly different distributions: the sketch W1/KS must agree
  // with the exact presorted kernels within the sketch rank error
  // (O(1/k) per sketch, asserted with generous margin).
  Rng rng(19);
  std::vector<double> p_values;
  std::vector<double> q_values;
  KllSketch p;
  KllSketch q;
  for (size_t i = 0; i < 200000; ++i) {
    const double pv = rng.Uniform();
    const double qv = rng.Uniform() * 0.8 + 0.15;
    p_values.push_back(pv);
    q_values.push_back(qv);
    p.Add(pv);
    q.Add(qv);
  }
  ASSERT_TRUE(stats::KolmogorovSmirnov(p_values, q_values).ok());
  const double exact_ks = *stats::KolmogorovSmirnov(p_values, q_values);
  const double exact_w1 = *stats::Wasserstein1Samples(p_values, q_values);

  ASSERT_TRUE(stats::KolmogorovSmirnovSketch(p, q).ok());
  const double sketch_ks = *stats::KolmogorovSmirnovSketch(p, q);
  const double sketch_w1 = *stats::Wasserstein1Sketch(p, q);

  // k=200 => ~1% rank error per sketch; 4% total margin is generous.
  EXPECT_NEAR(sketch_ks, exact_ks, 0.04);
  EXPECT_NEAR(sketch_w1, exact_w1, 0.04);

  // Identical sketches are at distance zero.
  EXPECT_DOUBLE_EQ(*stats::KolmogorovSmirnovSketch(p, p), 0.0);
  EXPECT_DOUBLE_EQ(*stats::Wasserstein1Sketch(p, p), 0.0);

  // Empty operands are errors, not zeros.
  KllSketch empty;
  EXPECT_FALSE(stats::KolmogorovSmirnovSketch(p, empty).ok());
  EXPECT_FALSE(stats::Wasserstein1Sketch(empty, q).ok());
}

}  // namespace
}  // namespace fairlaw
