#include <gtest/gtest.h>

#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/rng.h"

namespace fairlaw::stats {
namespace {

Statistic MeanStatistic() {
  return [](std::span<const double> sample) {
    return Mean(sample).ValueOrDie();
  };
}

TEST(BootstrapTest, MeanCiCoversTruth) {
  Rng rng(3);
  std::vector<double> sample(200);
  for (double& v : sample) v = rng.Normal(5.0, 2.0);
  ConfidenceInterval ci =
      BootstrapCi(sample, MeanStatistic(), 500, 0.95, &rng).ValueOrDie();
  EXPECT_LT(ci.lower, 5.0);
  EXPECT_GT(ci.upper, 5.0);
  EXPECT_LT(ci.lower, ci.estimate);
  EXPECT_GT(ci.upper, ci.estimate);
  EXPECT_DOUBLE_EQ(ci.level, 0.95);
}

TEST(BootstrapTest, WiderLevelGivesWiderInterval) {
  Rng rng(5);
  std::vector<double> sample(100);
  for (double& v : sample) v = rng.Normal(0.0, 1.0);
  Rng rng_a(7);
  Rng rng_b(7);
  ConfidenceInterval narrow =
      BootstrapCi(sample, MeanStatistic(), 400, 0.80, &rng_a).ValueOrDie();
  ConfidenceInterval wide =
      BootstrapCi(sample, MeanStatistic(), 400, 0.99, &rng_b).ValueOrDie();
  EXPECT_GT(wide.upper - wide.lower, narrow.upper - narrow.lower);
}

TEST(BootstrapTest, IntervalShrinksWithSampleSize) {
  Rng rng(9);
  std::vector<double> small(50);
  std::vector<double> large(5000);
  for (double& v : small) v = rng.Normal(0.0, 1.0);
  for (double& v : large) v = rng.Normal(0.0, 1.0);
  ConfidenceInterval ci_small =
      BootstrapCi(small, MeanStatistic(), 300, 0.95, &rng).ValueOrDie();
  ConfidenceInterval ci_large =
      BootstrapCi(large, MeanStatistic(), 300, 0.95, &rng).ValueOrDie();
  EXPECT_GT(ci_small.upper - ci_small.lower,
            ci_large.upper - ci_large.lower);
}

TEST(BootstrapTest, Validation) {
  Rng rng(1);
  std::vector<double> sample = {1.0, 2.0};
  EXPECT_FALSE(BootstrapCi({}, MeanStatistic(), 100, 0.95, &rng).ok());
  EXPECT_FALSE(BootstrapCi(sample, MeanStatistic(), 1, 0.95, &rng).ok());
  EXPECT_FALSE(BootstrapCi(sample, MeanStatistic(), 100, 1.0, &rng).ok());
  EXPECT_FALSE(BootstrapCi(sample, MeanStatistic(), 100, 0.95, nullptr).ok());
}

TEST(BootstrapTest, ParameterChecksPrecedeSampleChecks) {
  // A bad replicate count or level must be reported even when the sample
  // is also bad: the cheap argument checks run before any allocation or
  // sample inspection.
  Rng rng(1);
  Status status =
      BootstrapCi({}, MeanStatistic(), 1, 0.95, &rng).status();
  EXPECT_NE(status.message().find("replicates"), std::string::npos)
      << status.message();
  status = BootstrapCi({}, MeanStatistic(), 100, 2.0, &rng).status();
  EXPECT_NE(status.message().find("level"), std::string::npos)
      << status.message();
}

TEST(BootstrapTest, SizeOneSampleIsRejected) {
  // A single observation resamples to itself; a zero-width interval would
  // masquerade as certainty, so it is a Status, not a silent degenerate.
  Rng rng(1);
  std::vector<double> one = {3.0};
  Result<ConfidenceInterval> result =
      BootstrapCi(one, MeanStatistic(), 100, 0.95, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(BootstrapTwoSampleTest, RateGapCi) {
  // Group A has selection rate 0.8, group B 0.4: the CI of the gap should
  // cover 0.4 and exclude 0.
  Rng rng(11);
  std::vector<double> a(500);
  std::vector<double> b(500);
  for (double& v : a) v = rng.Bernoulli(0.8) ? 1.0 : 0.0;
  for (double& v : b) v = rng.Bernoulli(0.4) ? 1.0 : 0.0;
  TwoSampleStatistic gap = [](std::span<const double> x,
                              std::span<const double> y) {
    return Mean(x).ValueOrDie() - Mean(y).ValueOrDie();
  };
  ConfidenceInterval ci =
      BootstrapCiTwoSample(a, b, gap, 500, 0.95, &rng).ValueOrDie();
  EXPECT_GT(ci.lower, 0.25);
  EXPECT_LT(ci.upper, 0.55);
  EXPECT_NEAR(ci.estimate, 0.4, 0.08);
}

TEST(BootstrapTwoSampleTest, Validation) {
  Rng rng(1);
  std::vector<double> sample = {1.0, 2.0};
  TwoSampleStatistic gap = [](std::span<const double>,
                              std::span<const double>) { return 0.0; };
  EXPECT_FALSE(BootstrapCiTwoSample({}, sample, gap, 100, 0.95, &rng).ok());
  EXPECT_FALSE(
      BootstrapCiTwoSample(sample, sample, gap, 100, 0.0, &rng).ok());
}

TEST(BootstrapTwoSampleTest, BothSamplesSizeOneIsRejected) {
  Rng rng(1);
  std::vector<double> one_a = {1.0};
  std::vector<double> one_b = {2.0};
  std::vector<double> pair = {1.0, 2.0};
  TwoSampleStatistic gap = [](std::span<const double> x,
                              std::span<const double> y) {
    return Mean(x).ValueOrDie() - Mean(y).ValueOrDie();
  };
  Result<ConfidenceInterval> degenerate =
      BootstrapCiTwoSample(one_a, one_b, gap, 100, 0.95, &rng);
  EXPECT_FALSE(degenerate.ok());
  EXPECT_TRUE(degenerate.status().IsInvalid());
  // One singleton side is fine as long as the other side resamples.
  EXPECT_TRUE(
      BootstrapCiTwoSample(one_a, pair, gap, 100, 0.95, &rng).ok());
}

}  // namespace
}  // namespace fairlaw::stats
