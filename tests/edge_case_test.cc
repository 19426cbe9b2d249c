// Zero-denominator and empty/degenerate-group edge cases across the
// division-heavy audit paths. The contract under test: degenerate inputs
// produce Status errors, never NaN/Inf smuggled into a legal conclusion.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "legal/four_fifths.h"
#include "metrics/conditional_metrics.h"
#include "metrics/group_metrics.h"
#include "stats/descriptive.h"

namespace fairlaw {
namespace {

metrics::MetricInput TwoGroupInput(int selected_a, int total_a,
                                   int selected_b, int total_b) {
  metrics::MetricInput input;
  for (int i = 0; i < total_a; ++i) {
    input.groups.push_back("a");
    input.predictions.push_back(i < selected_a ? 1 : 0);
  }
  for (int i = 0; i < total_b; ++i) {
    input.groups.push_back("b");
    input.predictions.push_back(i < selected_b ? 1 : 0);
  }
  return input;
}

TEST(EdgeCaseTest, FourFifthsRejectsAllZeroSelectionRates) {
  Result<legal::FourFifthsResult> result =
      legal::FourFifthsTest(TwoGroupInput(0, 20, 0, 20));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition())
      << result.status().ToString();
}

TEST(EdgeCaseTest, FourFifthsRejectsSingleGroup) {
  metrics::MetricInput input;
  for (int i = 0; i < 10; ++i) {
    input.groups.push_back("only");
    input.predictions.push_back(i % 2);
  }
  Result<legal::FourFifthsResult> result = legal::FourFifthsTest(input);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(EdgeCaseTest, FourFifthsSingleMemberGroupStaysFinite) {
  Result<legal::FourFifthsResult> result =
      legal::FourFifthsTest(TwoGroupInput(1, 1, 5, 10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const legal::FourFifthsGroup& group : result->groups) {
    EXPECT_TRUE(std::isfinite(group.impact_ratio)) << group.group;
    EXPECT_TRUE(std::isfinite(group.selection_rate)) << group.group;
  }
}

TEST(EdgeCaseTest, DisparateImpactRejectsAllZeroSelectionRates) {
  Result<metrics::MetricReport> report =
      metrics::Evaluate(metrics::MetricId::kDisparateImpactRatio,
                        TwoGroupInput(0, 15, 0, 5), 0.8);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsFailedPrecondition())
      << report.status().ToString();
}

TEST(EdgeCaseTest, MetricsRejectEmptyInput) {
  metrics::MetricInput empty;
  EXPECT_FALSE(
      metrics::Evaluate(metrics::MetricId::kDemographicParity, empty, 0.1)
          .ok());
  EXPECT_FALSE(
      metrics::Evaluate(metrics::MetricId::kDisparateImpactRatio, empty, 0.8)
          .ok());
  EXPECT_FALSE(legal::FourFifthsTest(empty).ok());
}

TEST(EdgeCaseTest, EqualOpportunityRejectsGroupWithoutPositives) {
  metrics::MetricInput input = TwoGroupInput(3, 6, 2, 6);
  // Group "a" rows get label 1, group "b" rows all get label 0: TPR for
  // "b" would be 0/0.
  for (size_t i = 0; i < input.groups.size(); ++i) {
    input.labels.push_back(input.groups[i] == "a" ? 1 : 0);
  }
  Result<metrics::MetricReport> report =
      metrics::Evaluate(metrics::MetricId::kEqualOpportunity, input, 0.1);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalid());
}

TEST(EdgeCaseTest, PredictiveParityRejectsGroupWithoutPredictions) {
  metrics::MetricInput input = TwoGroupInput(3, 6, 0, 6);
  for (size_t i = 0; i < input.groups.size(); ++i) {
    input.labels.push_back(static_cast<int>(i % 2));
  }
  Result<metrics::MetricReport> report =
      metrics::Evaluate(metrics::MetricId::kPredictiveParity, input, 0.1);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalid());
}

TEST(EdgeCaseTest, ConditionalParityRejectsWhenNoStratumIsEvaluable) {
  metrics::MetricInput input = TwoGroupInput(2, 4, 1, 4);
  // Every row its own stratum: all strata fall below min_stratum_size.
  std::vector<std::string> strata;
  for (size_t i = 0; i < input.groups.size(); ++i) {
    strata.push_back("s" + std::to_string(i));
  }
  Result<metrics::ConditionalReport> report =
      metrics::EvaluateConditional(metrics::MetricId::kDemographicParity,
                                   input, strata, 0.1,
                                   /*min_stratum_size=*/5);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalid());
}

TEST(EdgeCaseTest, DescriptiveStatsRejectEmptySamples) {
  std::vector<double> empty;
  EXPECT_FALSE(stats::Mean(empty).ok());
  EXPECT_FALSE(stats::Variance(empty).ok());
  EXPECT_FALSE(stats::StdDev(empty).ok());
  EXPECT_FALSE(stats::Median(empty).ok());
}

TEST(EdgeCaseTest, DescriptiveStatsHandleSingleSample) {
  std::vector<double> one = {4.25};
  EXPECT_DOUBLE_EQ(stats::Mean(one).ValueOrDie(), 4.25);
  EXPECT_FALSE(stats::Variance(one).ok());  // needs n >= 2
  EXPECT_DOUBLE_EQ(stats::Quantile(one, 0.75).ValueOrDie(), 4.25);
  EXPECT_DOUBLE_EQ(stats::Median(one).ValueOrDie(), 4.25);
}

}  // namespace
}  // namespace fairlaw
