#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/descriptive.h"
#include "stats/rng.h"
#include "support/sort_quantiles.h"

namespace fairlaw::stats {
namespace {

const std::vector<double> kSample = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(DescriptiveTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean(kSample).ValueOrDie(), 5.0);
  EXPECT_FALSE(Mean(std::vector<double>{}).ok());
}

TEST(DescriptiveTest, VarianceAndStdDev) {
  // Sum of squared deviations = 32; n-1 = 7.
  EXPECT_NEAR(Variance(kSample).ValueOrDie(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(kSample).ValueOrDie(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_FALSE(Variance(std::vector<double>{1.0}).ok());
}

TEST(DescriptiveTest, QuantileInterpolates) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0).ValueOrDie(), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0).ValueOrDie(), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5).ValueOrDie(), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0 / 3.0).ValueOrDie(), 2.0);
  EXPECT_FALSE(Quantile(values, -0.1).ok());
  EXPECT_FALSE(Quantile(values, 1.1).ok());
}

TEST(DescriptiveTest, QuantilesEqualPerLevelQuantileBitForBit) {
  Rng rng(17);
  std::vector<double> values(1001);
  for (double& value : values) {
    // Few distinct values, so most order statistics are ties.
    value = static_cast<double>(rng.UniformInt(40)) / 7.0 - 2.0;
  }
  std::vector<double> levels = {0.0, 1.0, 0.5, 0.25, 1.0 / 3.0};
  for (size_t b = 1; b < 10; ++b) levels.push_back(b / 10.0);
  for (int i = 0; i < 50; ++i) levels.push_back(rng.Uniform());
  const std::vector<double> quantiles =
      Quantiles(values, levels).ValueOrDie();
  ASSERT_EQ(quantiles.size(), levels.size());
  for (size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(quantiles[i]),
              std::bit_cast<uint64_t>(
                  Quantile(values, levels[i]).ValueOrDie()))
        << "level " << levels[i];
  }
  EXPECT_EQ(Quantiles(std::vector<double>{}, levels).status().message(),
            "Quantile of empty sample");
  EXPECT_EQ(Quantile(std::vector<double>{}, 0.5).status().message(),
            "Quantile of empty sample");
  EXPECT_FALSE(Quantiles(values, std::vector<double>{0.5, 1.5}).ok());
}

/// Selection-based Quantiles against the full-sort oracle on `values`
/// at `levels`. With `bitwise` the doubles must match bit for bit; a
/// sample mixing -0.0 and 0.0 compares with ==, since the sort leaves
/// the order of equal zeros, and so the sign a zero quantile takes,
/// unspecified.
void ExpectMatchesSortOracle(const std::vector<double>& values,
                             const std::vector<double>& levels,
                             bool bitwise, const std::string& label) {
  const std::vector<double> want =
      QuantilesBySort(values, levels).ValueOrDie();
  const std::vector<double> got = Quantiles(values, levels).ValueOrDie();
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << label << " level " << levels[i];
    if (bitwise) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                std::bit_cast<uint64_t>(want[i]))
          << label << " level " << levels[i];
    }
  }
  // The in-place form leaves a permutation of the sample.
  std::vector<double> scratch = values;
  EXPECT_EQ(QuantilesInPlace(scratch, levels).ValueOrDie(), got) << label;
  std::vector<double> sorted_values = values;
  std::sort(sorted_values.begin(), sorted_values.end());
  std::sort(scratch.begin(), scratch.end());
  EXPECT_EQ(scratch, sorted_values) << label;
}

TEST(DescriptiveTest, QuantilesMatchFullSortOracle) {
  Rng rng(29);
  std::vector<double> deciles;
  for (size_t b = 1; b < 10; ++b) deciles.push_back(b / 10.0);
  std::vector<double> many = deciles;
  for (int i = 0; i < 40; ++i) many.push_back(rng.Uniform());

  std::vector<double> random(2003);
  for (double& value : random) value = rng.Normal(0.0, 3.0);
  std::vector<double> heavy_ties(5000);
  for (double& value : heavy_ties) {
    value = static_cast<double>(rng.UniformInt(4)) * 0.5;
  }
  const std::vector<double> all_equal(257, 3.25);
  const std::vector<double> single = {-7.5};
  std::vector<double> unsorted_repeated = {0.9, 0.1, 0.5, 0.1, 1.0,
                                           0.0, 0.9, 0.5, 0.33};
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{10}, size_t{11}}) {
    std::vector<double> small(random.begin(), random.begin() + n);
    ExpectMatchesSortOracle(small, many, true, "n=" + std::to_string(n));
  }
  for (const std::vector<double>* levels :
       {&deciles, &many, &unsorted_repeated}) {
    ExpectMatchesSortOracle(random, *levels, true, "random");
    ExpectMatchesSortOracle(heavy_ties, *levels, true, "heavy ties");
    ExpectMatchesSortOracle(all_equal, *levels, true, "all equal");
    ExpectMatchesSortOracle(single, *levels, true, "single");
  }
  ExpectMatchesSortOracle(random, {0.0, 1.0}, true, "levels 0 and 1");
  ExpectMatchesSortOracle(heavy_ties, {1.0, 0.0}, true, "levels 1 and 0");
  ExpectMatchesSortOracle(random, {}, true, "no levels");

  std::vector<double> signed_zeros(999);
  for (double& value : signed_zeros) {
    const uint64_t draw = rng.UniformInt(5);
    value = draw == 0 ? -0.0 : draw == 1 ? 0.0 : draw == 2 ? -1.5 : 2.0;
  }
  ExpectMatchesSortOracle(signed_zeros, many, false, "signed zeros");
  ExpectMatchesSortOracle({0.0, -0.0, 0.0, -0.0}, unsorted_repeated, false,
                          "zeros only");

  for (const std::vector<double>& levels :
       {std::vector<double>{0.5, -0.1}, std::vector<double>{1.5}}) {
    EXPECT_EQ(Quantiles(random, levels).status().message(),
              QuantilesBySort(random, levels).status().message());
  }
  EXPECT_EQ(Quantiles(std::vector<double>{}, deciles).status().message(),
            QuantilesBySort(std::vector<double>{}, deciles)
                .status()
                .message());
}

TEST(DescriptiveTest, QuantileUnsortedInput) {
  std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5).ValueOrDie(), 2.5);
}

TEST(DescriptiveTest, Median) {
  EXPECT_DOUBLE_EQ(Median(kSample).ValueOrDie(), 4.5);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{3.0}).ValueOrDie(), 3.0);
}

}  // namespace
}  // namespace fairlaw::stats
