#include <gtest/gtest.h>

#include "ml/logistic_regression.h"
#include "stats/rng.h"

namespace fairlaw::ml {
namespace {

using fairlaw::stats::Rng;

/// Linearly separable blobs: class 1 around (+2,+2), class 0 around
/// (-2,-2).
Dataset MakeBlobs(size_t n, Rng* rng, double separation = 2.0) {
  Dataset data;
  data.feature_names = {"x0", "x1"};
  data.features.reserve(n);
  data.labels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int label = rng->Bernoulli(0.5) ? 1 : 0;
    double center = label == 1 ? separation : -separation;
    data.features.push_back(
        {rng->Normal(center, 1.0), rng->Normal(center, 1.0)});
    data.labels.push_back(label);
  }
  return data;
}

double AccuracyOn(const Classifier& model, const Dataset& data) {
  std::vector<int> predictions =
      model.PredictBatch(data.features).ValueOrDie();
  size_t correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (predictions[i] == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

TEST(DatasetTest, Validation) {
  Dataset data;
  EXPECT_FALSE(data.Validate().ok());  // empty
  data.features = {{1.0}, {2.0}};
  data.labels = {0, 1};
  EXPECT_TRUE(data.Validate().ok());
  data.labels = {0, 2};
  EXPECT_FALSE(data.Validate().ok());  // non-binary label
  data.labels = {0, 1};
  data.weights = {1.0};
  EXPECT_FALSE(data.Validate().ok());  // weight length
  data.weights = {1.0, -1.0};
  EXPECT_FALSE(data.Validate().ok());  // negative weight
  data.weights = {1.0, 2.0};
  EXPECT_TRUE(data.Validate().ok());
  data.features = {{1.0}, {2.0, 3.0}};
  EXPECT_FALSE(data.Validate().ok());  // ragged
}

TEST(DatasetTest, TakeSubset) {
  Dataset data;
  data.features = {{1.0}, {2.0}, {3.0}};
  data.labels = {0, 1, 0};
  data.weights = {1.0, 2.0, 3.0};
  std::vector<size_t> indices = {2, 0};
  Dataset subset = data.Take(indices).ValueOrDie();
  EXPECT_EQ(subset.size(), 2u);
  EXPECT_DOUBLE_EQ(subset.features[0][0], 3.0);
  EXPECT_DOUBLE_EQ(subset.weights[1], 1.0);
  std::vector<size_t> bad = {9};
  EXPECT_FALSE(data.Take(bad).ok());
}

TEST(LogisticRegressionTest, LearnsSeparableData) {
  Rng rng(3);
  Dataset data = MakeBlobs(600, &rng);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_GT(AccuracyOn(model, data), 0.95);
  // Both weights positive (class 1 lives in the positive quadrant).
  EXPECT_GT(model.weights()[0], 0.0);
  EXPECT_GT(model.weights()[1], 0.0);
}

TEST(LogisticRegressionTest, ProbabilitiesBoundedAndMonotone) {
  Rng rng(5);
  Dataset data = MakeBlobs(400, &rng);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> low = {-5.0, -5.0};
  std::vector<double> high = {5.0, 5.0};
  double p_low = model.PredictProba(low).ValueOrDie();
  double p_high = model.PredictProba(high).ValueOrDie();
  EXPECT_LT(p_low, 0.05);
  EXPECT_GT(p_high, 0.95);
}

TEST(LogisticRegressionTest, WeightsShiftDecision) {
  // Upweighting one class moves predictions toward it.
  Rng rng(7);
  Dataset data = MakeBlobs(400, &rng, /*separation=*/0.3);
  Dataset weighted = data;
  weighted.weights.assign(weighted.size(), 1.0);
  for (size_t i = 0; i < weighted.size(); ++i) {
    if (weighted.labels[i] == 1) weighted.weights[i] = 10.0;
  }
  LogisticRegression plain;
  LogisticRegression skewed;
  ASSERT_TRUE(plain.Fit(data).ok());
  ASSERT_TRUE(skewed.Fit(weighted).ok());
  std::vector<double> origin = {0.0, 0.0};
  EXPECT_GT(skewed.PredictProba(origin).ValueOrDie(),
            plain.PredictProba(origin).ValueOrDie());
}

TEST(LogisticRegressionTest, ErrorsBeforeFitAndOnBadWidth) {
  LogisticRegression model;
  std::vector<double> x = {1.0, 2.0};
  EXPECT_TRUE(model.PredictProba(x).status().IsFailedPrecondition());
  Rng rng(9);
  Dataset data = MakeBlobs(50, &rng);
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> narrow = {1.0};
  EXPECT_FALSE(model.PredictProba(narrow).ok());
}

TEST(SigmoidTest, StableAtExtremes) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);  // no overflow
}

}  // namespace
}  // namespace fairlaw::ml
