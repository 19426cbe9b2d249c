// Post-processing mitigators: group thresholds (Hardt-style) and
// affirmative-action quota selection (§IV-A).
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/group_metrics.h"
#include "mitigation/quota.h"
#include "mitigation/threshold_optimizer.h"
#include "stats/rng.h"

namespace fairlaw::mitigation {
namespace {

using fairlaw::stats::Rng;

struct Scored {
  std::vector<std::string> groups;
  std::vector<double> scores;
  std::vector<int> labels;
};

/// Group "b" scores are depressed by `shift`; labels follow the
/// pre-shift latent so b's scores underestimate b's qualification.
Scored MakeScored(size_t n, double shift, uint64_t seed) {
  Rng rng(seed);
  Scored data;
  for (size_t i = 0; i < n; ++i) {
    bool b = rng.Bernoulli(0.5);
    double latent = rng.Normal(0.0, 1.0);
    double score = 1.0 / (1.0 + std::exp(-(latent - (b ? shift : 0.0))));
    data.groups.push_back(b ? "b" : "a");
    data.scores.push_back(score);
    data.labels.push_back(latent + rng.Normal(0.0, 0.3) > 0.0 ? 1 : 0);
  }
  return data;
}

metrics::MetricInput ToInput(const Scored& data,
                             const std::vector<int>& predictions) {
  metrics::MetricInput input;
  input.groups = data.groups;
  input.predictions = predictions;
  input.labels = data.labels;
  return input;
}

TEST(ThresholdOptimizerTest, DemographicParityEqualizesRates) {
  Scored data = MakeScored(4000, 1.5, 3);
  ThresholdOptimizerOptions options;
  options.target_rate = 0.3;
  GroupThresholds thresholds =
      OptimizeThresholds(data.groups, data.scores, {},
                         ThresholdCriterion::kDemographicParity, options)
          .ValueOrDie();
  std::vector<int> predictions =
      thresholds.Apply(data.groups, data.scores).ValueOrDie();
  metrics::MetricReport report =
      metrics::Evaluate(metrics::MetricId::kDemographicParity,
                        ToInput(data, predictions), 0.05)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  for (const metrics::GroupStats& gs : report.groups) {
    EXPECT_NEAR(gs.selection_rate, 0.3, 0.05);
  }
  // Group b needs a lower threshold than group a.
  EXPECT_LT(thresholds.threshold.at("b"), thresholds.threshold.at("a"));
}

TEST(ThresholdOptimizerTest, SingleThresholdWouldViolateParity) {
  // Sanity baseline: a shared 0.5 threshold yields a large gap on the
  // same data the optimizer fixes.
  Scored data = MakeScored(4000, 1.5, 3);
  std::vector<int> predictions(data.scores.size());
  for (size_t i = 0; i < data.scores.size(); ++i) {
    predictions[i] = data.scores[i] >= 0.5 ? 1 : 0;
  }
  metrics::MetricReport report =
      metrics::Evaluate(metrics::MetricId::kDemographicParity,
                        ToInput(data, predictions), 0.05)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  EXPECT_GT(report.max_gap, 0.3);
}

TEST(ThresholdOptimizerTest, EqualOpportunityEqualizesTpr) {
  Scored data = MakeScored(6000, 1.5, 5);
  ThresholdOptimizerOptions options;
  options.target_tpr = 0.7;
  GroupThresholds thresholds =
      OptimizeThresholds(data.groups, data.scores, data.labels,
                         ThresholdCriterion::kEqualOpportunity, options)
          .ValueOrDie();
  std::vector<int> predictions =
      thresholds.Apply(data.groups, data.scores).ValueOrDie();
  metrics::MetricReport report =
      metrics::Evaluate(metrics::MetricId::kEqualOpportunity,
                        ToInput(data, predictions), 0.06)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  for (const metrics::GroupStats& gs : report.groups) {
    EXPECT_NEAR(gs.tpr, 0.7, 0.06);
  }
}

TEST(ThresholdOptimizerTest, EqualizedOddsReducesBothGaps) {
  Scored data = MakeScored(6000, 1.5, 7);
  // Baseline at shared threshold.
  std::vector<int> baseline(data.scores.size());
  for (size_t i = 0; i < data.scores.size(); ++i) {
    baseline[i] = data.scores[i] >= 0.5 ? 1 : 0;
  }
  double baseline_gap =
      metrics::Evaluate(metrics::MetricId::kEqualizedOdds,
                        ToInput(data, baseline), 0.0)
          .ValueOrDie()
          .max_gap;

  GroupThresholds thresholds =
      OptimizeThresholds(data.groups, data.scores, data.labels,
                         ThresholdCriterion::kEqualizedOdds, {})
          .ValueOrDie();
  std::vector<int> predictions =
      thresholds.Apply(data.groups, data.scores).ValueOrDie();
  double optimized_gap =
      metrics::Evaluate(metrics::MetricId::kEqualizedOdds,
                        ToInput(data, predictions), 0.0)
          .ValueOrDie()
          .max_gap;
  EXPECT_LT(optimized_gap, baseline_gap * 0.5);
}

TEST(ThresholdOptimizerTest, Validation) {
  Scored data = MakeScored(100, 0.5, 9);
  EXPECT_FALSE(OptimizeThresholds(data.groups, data.scores, {},
                                  ThresholdCriterion::kEqualOpportunity, {})
                   .ok());  // labels required
  EXPECT_FALSE(OptimizeThresholds({}, {}, {},
                                  ThresholdCriterion::kDemographicParity, {})
                   .ok());
  // Unknown group at apply time.
  GroupThresholds thresholds =
      OptimizeThresholds(data.groups, data.scores, {},
                         ThresholdCriterion::kDemographicParity, {})
          .ValueOrDie();
  std::vector<std::string> alien = {"zzz"};
  std::vector<double> score = {0.5};
  EXPECT_TRUE(thresholds.Apply(alien, score).status().IsNotFound());
}

// ---- quota selection ----

TEST(QuotaTest, ReservedShareEnforced) {
  // 10 candidates: males hold the top 6 scores.
  std::vector<std::string> groups = {"m", "m", "m", "m", "m", "m",
                                     "f", "f", "f", "f"};
  std::vector<double> scores = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  QuotaOptions options;
  options.total_selections = 5;
  options.min_share = {{"f", 0.4}};  // at least 2 of 5
  QuotaSelection selection =
      SelectWithQuota(groups, scores, options).ValueOrDie();
  EXPECT_EQ(selection.selected_per_group["f"], 2u);
  EXPECT_EQ(selection.selected_per_group["m"], 3u);
  // The two selected women are the best-scoring women.
  EXPECT_EQ(selection.selected[6], 1);
  EXPECT_EQ(selection.selected[7], 1);
  EXPECT_EQ(selection.selected[8], 0);
  // Two men displaced relative to pure top-5.
  EXPECT_EQ(selection.displaced, 2u);
}

TEST(QuotaTest, NoQuotaIsPureTopK) {
  std::vector<std::string> groups = {"m", "f", "m", "f"};
  std::vector<double> scores = {4, 3, 2, 1};
  QuotaOptions options;
  options.total_selections = 2;
  QuotaSelection selection =
      SelectWithQuota(groups, scores, options).ValueOrDie();
  EXPECT_EQ(selection.selected, (std::vector<int>{1, 1, 0, 0}));
  EXPECT_EQ(selection.displaced, 0u);
}

TEST(QuotaTest, QuotaAlreadySatisfiedCostsNothing) {
  std::vector<std::string> groups = {"f", "f", "m", "m"};
  std::vector<double> scores = {4, 3, 2, 1};
  QuotaOptions options;
  options.total_selections = 2;
  options.min_share = {{"f", 0.5}};
  QuotaSelection selection =
      SelectWithQuota(groups, scores, options).ValueOrDie();
  EXPECT_EQ(selection.displaced, 0u);
  EXPECT_EQ(selection.selected_per_group["f"], 2u);
}

TEST(QuotaTest, GroupSmallerThanReservationReturnsSlots) {
  std::vector<std::string> groups = {"f", "m", "m", "m"};
  std::vector<double> scores = {1, 4, 3, 2};
  QuotaOptions options;
  options.total_selections = 3;
  options.min_share = {{"f", 0.9}};  // would reserve 3, only 1 woman
  QuotaSelection selection =
      SelectWithQuota(groups, scores, options).ValueOrDie();
  EXPECT_EQ(selection.selected_per_group["f"], 1u);
  EXPECT_EQ(selection.selected_per_group["m"], 2u);
}

TEST(QuotaTest, Validation) {
  std::vector<std::string> groups = {"a", "b"};
  std::vector<double> scores = {1.0, 2.0};
  QuotaOptions options;
  options.total_selections = 0;
  EXPECT_FALSE(SelectWithQuota(groups, scores, options).ok());
  options.total_selections = 5;
  EXPECT_FALSE(SelectWithQuota(groups, scores, options).ok());
  options.total_selections = 1;
  options.min_share = {{"a", 0.6}, {"b", 0.6}};
  EXPECT_FALSE(SelectWithQuota(groups, scores, options).ok());  // sum > 1
  options.min_share = {{"zzz", 0.5}};
  EXPECT_TRUE(
      SelectWithQuota(groups, scores, options).status().IsNotFound());
}

}  // namespace
}  // namespace fairlaw::mitigation
