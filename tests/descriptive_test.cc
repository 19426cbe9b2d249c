#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/descriptive.h"
#include "stats/rng.h"

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
