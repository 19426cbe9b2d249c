#include <gtest/gtest.h>

#include "ml/model_eval.h"

namespace fairlaw::ml {
namespace {

TEST(ConfusionMatrixTest, CountsAndRates) {
  std::vector<int> labels = {1, 1, 1, 0, 0, 0, 0, 1};
  std::vector<int> preds = {1, 1, 0, 0, 0, 1, 0, 1};
  ConfusionMatrix cm = MakeConfusionMatrix(labels, preds).ValueOrDie();
  EXPECT_EQ(cm.tp, 3);
  EXPECT_EQ(cm.fn, 1);
  EXPECT_EQ(cm.fp, 1);
  EXPECT_EQ(cm.tn, 3);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(cm.selection_rate(), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.75);
}

TEST(ConfusionMatrixTest, DegenerateRatesAreZero) {
  std::vector<int> labels = {0, 0};
  std::vector<int> preds = {0, 0};
  ConfusionMatrix cm = MakeConfusionMatrix(labels, preds).ValueOrDie();
  EXPECT_DOUBLE_EQ(cm.precision(), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
}

TEST(ConfusionMatrixTest, Validation) {
  std::vector<int> labels = {0, 1};
  std::vector<int> bad_length = {0};
  std::vector<int> bad_values = {0, 2};
  EXPECT_FALSE(MakeConfusionMatrix(labels, bad_length).ok());
  EXPECT_FALSE(MakeConfusionMatrix(labels, bad_values).ok());
  EXPECT_FALSE(MakeConfusionMatrix({}, {}).ok());
}

TEST(AccuracyTest, Matches) {
  std::vector<int> labels = {1, 0, 1};
  std::vector<int> preds = {1, 1, 1};
  EXPECT_NEAR(Accuracy(labels, preds).ValueOrDie(), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace fairlaw::ml
