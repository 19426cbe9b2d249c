#include <gtest/gtest.h>

#include "stats/calibration.h"
#include "stats/rng.h"

namespace fairlaw::stats {
namespace {

TEST(ReliabilityDiagramTest, BinsCoverUnitInterval) {
  std::vector<int> labels = {0, 1, 0, 1};
  std::vector<double> scores = {0.05, 0.95, 0.45, 0.55};
  auto bins = ReliabilityDiagram(labels, scores, 10).ValueOrDie();
  ASSERT_EQ(bins.size(), 10u);
  EXPECT_DOUBLE_EQ(bins[0].lower, 0.0);
  EXPECT_DOUBLE_EQ(bins[9].upper, 1.0);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_EQ(bins[9].count, 1u);
  EXPECT_EQ(bins[4].count, 1u);
  EXPECT_EQ(bins[5].count, 1u);
  EXPECT_DOUBLE_EQ(bins[9].positive_rate, 1.0);
}

TEST(ReliabilityDiagramTest, ScoreOneGoesToLastBin) {
  std::vector<int> labels = {1};
  std::vector<double> scores = {1.0};
  auto bins = ReliabilityDiagram(labels, scores, 5).ValueOrDie();
  EXPECT_EQ(bins[4].count, 1u);
}

TEST(EceTest, PerfectlyCalibratedNearZero) {
  // Scores equal to the empirical rate per bin.
  Rng rng(5);
  std::vector<int> labels;
  std::vector<double> scores;
  for (int i = 0; i < 20000; ++i) {
    double p = (static_cast<int>(rng.UniformInt(10)) + 0.5) / 10.0;
    scores.push_back(p);
    labels.push_back(rng.Bernoulli(p) ? 1 : 0);
  }
  EXPECT_LT(ExpectedCalibrationError(labels, scores, 10).ValueOrDie(), 0.02);
}

TEST(EceTest, MiscalibratedIsLarge) {
  // Model always says 0.9 but the true rate is 0.5.
  Rng rng(7);
  std::vector<int> labels;
  std::vector<double> scores;
  for (int i = 0; i < 5000; ++i) {
    scores.push_back(0.9);
    labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
  }
  EXPECT_NEAR(ExpectedCalibrationError(labels, scores, 10).ValueOrDie(),
              0.4, 0.03);
}

TEST(CalibrationTest, Validation) {
  std::vector<int> labels = {0, 1};
  std::vector<double> out_of_range = {0.5, 1.5};
  std::vector<double> short_scores = {0.5};
  EXPECT_FALSE(ExpectedCalibrationError(labels, out_of_range).ok());
  EXPECT_FALSE(ExpectedCalibrationError(labels, short_scores).ok());
  EXPECT_FALSE(ReliabilityDiagram(labels, std::vector<double>{0.5, 0.5}, 0).ok());
}

}  // namespace
}  // namespace fairlaw::stats
