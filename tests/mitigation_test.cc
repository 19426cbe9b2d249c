// Pre-/in-processing mitigators: reweighing, disparate-impact remover,
// group-blind OT repair, fairness-regularized logistic regression.
#include <gtest/gtest.h>

#include <cmath>

#include <map>

#include "metrics/group_metrics.h"
#include "mitigation/di_remover.h"
#include "mitigation/group_blind_repair.h"
#include "mitigation/regularized_lr.h"
#include "mitigation/reweighing.h"
#include "ml/logistic_regression.h"
#include "stats/descriptive.h"
#include "stats/rng.h"

namespace fairlaw::mitigation {
namespace {

using fairlaw::stats::Rng;

TEST(ReweighingTest, WeightsRestoreIndependence) {
  // 80 male (60 hired), 20 female (5 hired): strong association.
  std::vector<std::string> groups;
  std::vector<int> labels;
  auto add = [&](const std::string& g, int y, int count) {
    for (int i = 0; i < count; ++i) {
      groups.push_back(g);
      labels.push_back(y);
    }
  };
  add("male", 1, 60);
  add("male", 0, 20);
  add("female", 1, 5);
  add("female", 0, 15);
  std::vector<double> weights =
      ReweighingWeights(groups, labels).ValueOrDie();

  // In the weighted data the positive rate must be identical per group.
  std::map<std::string, double> positive;
  std::map<std::string, double> total;
  for (size_t i = 0; i < groups.size(); ++i) {
    total[groups[i]] += weights[i];
    if (labels[i] == 1) positive[groups[i]] += weights[i];
  }
  double male_rate = positive["male"] / total["male"];
  double female_rate = positive["female"] / total["female"];
  EXPECT_NEAR(male_rate, female_rate, 1e-9);
  // Overall weighted label rate equals the unweighted one (65/100).
  double all_positive = positive["male"] + positive["female"];
  double all_total = total["male"] + total["female"];
  EXPECT_NEAR(all_positive / all_total, 0.65, 1e-9);
  // Disadvantaged-favorable cell weighted up.
  size_t female_hired_index = 80;  // first female hired row
  EXPECT_GT(weights[female_hired_index], 1.0);
}

TEST(ReweighingTest, IndependentDataGetsUnitWeights) {
  std::vector<std::string> groups;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    groups.push_back(i % 2 == 0 ? "a" : "b");
    labels.push_back(i % 4 < 2 ? 1 : 0);
  }
  std::vector<double> weights =
      ReweighingWeights(groups, labels).ValueOrDie();
  for (double w : weights) EXPECT_NEAR(w, 1.0, 1e-9);
}

TEST(ReweighingTest, ApplyMultipliesIntoDataset) {
  ml::Dataset data;
  data.features = {{1.0}, {2.0}, {3.0}, {4.0}};
  data.labels = {1, 0, 1, 0};
  data.weights = {2.0, 2.0, 2.0, 2.0};
  std::vector<std::string> groups = {"a", "a", "b", "b"};
  ASSERT_TRUE(ApplyReweighing(groups, &data).ok());
  for (double w : data.weights) EXPECT_NEAR(w, 2.0, 1e-9);  // independent
}

TEST(ReweighingTest, Validation) {
  EXPECT_FALSE(ReweighingWeights({}, {}).ok());
  EXPECT_FALSE(ReweighingWeights({"a"}, {1, 0}).ok());
  EXPECT_FALSE(ReweighingWeights({"a"}, {2}).ok());
}

TEST(DiRemoverTest, FullRepairEqualizesGroupDistributions) {
  Rng rng(7);
  std::vector<std::string> groups;
  std::vector<double> values;
  std::vector<double> group_a;
  std::vector<double> group_b;
  for (int i = 0; i < 2000; ++i) {
    bool a = i % 2 == 0;
    double v = a ? rng.Normal(0.0, 1.0) : rng.Normal(2.0, 1.0);
    groups.push_back(a ? "a" : "b");
    values.push_back(v);
  }
  std::vector<double> repaired =
      RepairFeature(groups, values, 1.0).ValueOrDie();
  for (size_t i = 0; i < repaired.size(); ++i) {
    (groups[i] == "a" ? group_a : group_b).push_back(repaired[i]);
  }
  double mean_a = stats::Mean(group_a).ValueOrDie();
  double mean_b = stats::Mean(group_b).ValueOrDie();
  EXPECT_NEAR(mean_a, mean_b, 0.1);
  // And the medians coincide too (full distributional repair).
  EXPECT_NEAR(stats::Median(group_a).ValueOrDie(),
              stats::Median(group_b).ValueOrDie(), 0.15);
}

TEST(DiRemoverTest, ZeroRepairIsIdentity) {
  std::vector<std::string> groups = {"a", "a", "b", "b"};
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> repaired =
      RepairFeature(groups, values, 0.0).ValueOrDie();
  EXPECT_EQ(repaired, values);
}

TEST(DiRemoverTest, WithinGroupOrderPreserved) {
  Rng rng(11);
  std::vector<std::string> groups;
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    groups.push_back(i % 2 == 0 ? "a" : "b");
    values.push_back(rng.Normal(i % 2 == 0 ? 0.0 : 3.0, 1.0));
  }
  std::vector<double> repaired =
      RepairFeature(groups, values, 1.0).ValueOrDie();
  // Rank order within each group must be preserved.
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = i + 1; j < values.size(); ++j) {
      if (groups[i] != groups[j]) continue;
      if (values[i] < values[j]) {
        EXPECT_LE(repaired[i], repaired[j] + 1e-9);
      }
    }
  }
}

TEST(DiRemoverTest, PartialRepairInterpolates) {
  std::vector<std::string> groups = {"a", "a", "b", "b"};
  std::vector<double> values = {0.0, 1.0, 10.0, 11.0};
  std::vector<double> half = RepairFeature(groups, values, 0.5).ValueOrDie();
  std::vector<double> full = RepairFeature(groups, values, 1.0).ValueOrDie();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(half[i], 0.5 * (values[i] + full[i]), 1e-9);
  }
}

TEST(DiRemoverTest, RepairFeaturesInPlace) {
  std::vector<std::string> groups = {"a", "b", "a", "b"};
  std::vector<std::vector<double>> features = {
      {0.0, 5.0}, {10.0, 5.0}, {1.0, 5.0}, {11.0, 5.0}};
  ASSERT_TRUE(RepairFeatures(groups, &features, {0}, 1.0).ok());
  // Column 1 untouched.
  for (const auto& row : features) EXPECT_DOUBLE_EQ(row[1], 5.0);
  // Column 0 group gap narrowed.
  EXPECT_LT(std::fabs(features[1][0] - features[0][0]), 10.0);
  EXPECT_FALSE(RepairFeatures(groups, &features, {7}, 1.0).ok());
}

TEST(DiRemoverTest, Validation) {
  std::vector<std::string> groups = {"a", "b"};
  std::vector<double> values = {1.0, 2.0};
  EXPECT_FALSE(RepairFeature(groups, values, -0.1).ok());
  EXPECT_FALSE(RepairFeature(groups, values, 1.1).ok());
  EXPECT_FALSE(RepairFeature({"a"}, values, 0.5).ok());
}

TEST(GroupBlindRepairTest, CompensatesMostOfTheGapWithoutGroupLabels) {
  // Reference research data: group a scores ~ N(0,1), group b ~ N(-1.5,1)
  // (disadvantaged). Operational pool mixes them 50/50 WITHOUT labels.
  Rng rng(13);
  std::vector<double> ref_a(500);
  std::vector<double> ref_b(500);
  for (double& v : ref_a) v = rng.Normal(0.0, 1.0);
  for (double& v : ref_b) v = rng.Normal(-1.5, 1.0);
  GroupBlindRepair repair =
      GroupBlindRepair::Fit({ref_a, ref_b}, {0.5, 0.5}).ValueOrDie();

  const size_t n = 6000;
  std::vector<double> pooled(n);
  std::vector<uint8_t> is_b(n);
  for (size_t i = 0; i < n; ++i) {
    is_b[i] = rng.Bernoulli(0.5);
    pooled[i] = is_b[i] ? rng.Normal(-1.5, 1.0) : rng.Normal(0.0, 1.0);
  }
  std::vector<double> repaired = repair.Apply(pooled, 1.0).ValueOrDie();

  auto group_means = [&](const std::vector<double>& scores) {
    double sum[2] = {0.0, 0.0};
    double cnt[2] = {0.0, 0.0};
    for (size_t i = 0; i < n; ++i) {
      int g = is_b[i] ? 1 : 0;
      sum[g] += scores[i];
      cnt[g] += 1.0;
    }
    return std::pair<double, double>(sum[0] / cnt[0], sum[1] / cnt[1]);
  };
  auto [mean_a_before, mean_b_before] = group_means(pooled);
  auto [mean_a_after, mean_b_after] = group_means(repaired);
  double gap_before = std::fabs(mean_a_before - mean_b_before);
  double gap_after = std::fabs(mean_a_after - mean_b_after);
  // The posterior-expected deficit compensates a large share of the mean
  // gap; the remainder is the group-overlap limit documented in the
  // header.
  EXPECT_GT(gap_before, 1.3);
  EXPECT_LT(gap_after, gap_before * 0.6);

  // Selection-rate gap at the pooled median also shrinks: the map is
  // non-monotone, so rankings genuinely change.
  auto gap_at_median = [&](const std::vector<double>& scores) {
    double threshold = stats::Median(scores).ValueOrDie();
    double sel[2] = {0.0, 0.0};
    double cnt[2] = {0.0, 0.0};
    for (size_t i = 0; i < n; ++i) {
      int g = is_b[i] ? 1 : 0;
      cnt[g] += 1.0;
      if (scores[i] >= threshold) sel[g] += 1.0;
    }
    return std::fabs(sel[0] / cnt[0] - sel[1] / cnt[1]);
  };
  double rate_gap_before = gap_at_median(pooled);
  double rate_gap_after = gap_at_median(repaired);
  EXPECT_GT(rate_gap_before, 0.4);
  EXPECT_LT(rate_gap_after, rate_gap_before * 0.75);
}

TEST(GroupBlindRepairTest, StrengthZeroIsIdentity) {
  std::vector<double> ref_a = {0.0, 1.0, 2.0};
  std::vector<double> ref_b = {5.0, 6.0, 7.0};
  GroupBlindRepair repair =
      GroupBlindRepair::Fit({ref_a, ref_b}, {0.5, 0.5}).ValueOrDie();
  std::vector<double> pooled = {0.5, 5.5, 6.5, 1.5};
  std::vector<double> repaired = repair.Apply(pooled, 0.0).ValueOrDie();
  EXPECT_EQ(repaired, pooled);
}

TEST(GroupBlindRepairTest, PosteriorIdentifiesTheLikelyGroup) {
  std::vector<double> ref_a = {-0.5, 0.0, 0.5, 0.2, -0.2};
  std::vector<double> ref_b = {9.5, 10.0, 10.5, 10.2, 9.8};
  GroupBlindRepair repair =
      GroupBlindRepair::Fit({ref_a, ref_b}, {0.5, 0.5}).ValueOrDie();
  std::vector<double> at_a = repair.PosteriorGroupProbabilities(0.0);
  EXPECT_GT(at_a[0], 0.99);
  std::vector<double> at_b = repair.PosteriorGroupProbabilities(10.0);
  EXPECT_GT(at_b[1], 0.99);
  // Posterior sums to one everywhere.
  std::vector<double> mid = repair.PosteriorGroupProbabilities(5.0);
  EXPECT_NEAR(mid[0] + mid[1], 1.0, 1e-12);
}

TEST(GroupBlindRepairTest, BarycenterMeanIsMarginalWeighted) {
  std::vector<double> ref_a = {-0.1, 0.1};
  std::vector<double> ref_b = {9.9, 10.1};
  GroupBlindRepair repair =
      GroupBlindRepair::Fit({ref_a, ref_b}, {0.3, 0.7}).ValueOrDie();
  EXPECT_NEAR(repair.BarycenterMean(), 7.0, 1e-9);
  // A clear group-b score moves toward the barycenter (down by ~3).
  std::vector<double> pooled = {10.0, 0.0};
  std::vector<double> repaired = repair.Apply(pooled, 1.0).ValueOrDie();
  EXPECT_NEAR(repaired[0], 7.0, 0.1);
  EXPECT_NEAR(repaired[1], 7.0, 0.1);
}

TEST(GroupBlindRepairTest, Validation) {
  std::vector<double> ref = {1.0, 2.0};
  EXPECT_FALSE(GroupBlindRepair::Fit({ref}, {1.0}).ok());
  EXPECT_FALSE(GroupBlindRepair::Fit({ref, ref}, {1.0}).ok());
  EXPECT_FALSE(GroupBlindRepair::Fit({ref, ref}, {-1.0, 2.0}).ok());
  EXPECT_FALSE(GroupBlindRepair::Fit({ref, {}}, {0.5, 0.5}).ok());
  EXPECT_FALSE(GroupBlindRepair::Fit({ref, {1.0}}, {0.5, 0.5}).ok());
  GroupBlindRepair repair =
      GroupBlindRepair::Fit({ref, ref}, {0.5, 0.5}).ValueOrDie();
  std::vector<double> pooled = {1.0};
  EXPECT_FALSE(repair.Apply(pooled, 1.5).ok());
  EXPECT_FALSE(repair.Apply(std::vector<double>{}, 0.5).ok());
}

TEST(FairLogisticRegressionTest, PenaltyShrinksParityGap) {
  // Biased hiring data with gender-correlated feature.
  Rng rng(19);
  ml::Dataset data;
  std::vector<int> group(1200);
  for (int i = 0; i < 1200; ++i) {
    bool female = rng.Bernoulli(0.5);
    group[i] = female ? 1 : 0;
    double skill = rng.Normal(0.0, 1.0);
    double proxy = skill + (female ? -1.5 : 1.5) + rng.Normal(0.0, 0.5);
    data.features.push_back({skill, proxy});
    double latent = skill + proxy * 0.8 + rng.Normal(0.0, 0.5);
    data.labels.push_back(latent > 0.0 ? 1 : 0);
  }

  auto dp_gap = [&](const ml::Classifier& model) {
    metrics::MetricInput input;
    std::vector<int> predictions =
        model.PredictBatch(data.features).ValueOrDie();
    for (size_t i = 0; i < data.size(); ++i) {
      input.groups.push_back(group[i] == 1 ? "f" : "m");
      input.predictions.push_back(predictions[i]);
    }
    return metrics::Evaluate(metrics::MetricId::kDemographicParity, input, 0.0)
        .ValueOrDie()
        .max_gap;
  };

  FairLrOptions plain_options;
  plain_options.fairness_weight = 0.0;
  FairLogisticRegression plain(group, plain_options);
  ASSERT_TRUE(plain.Fit(data).ok());

  FairLrOptions fair_options;
  fair_options.fairness_weight = 20.0;
  FairLogisticRegression fair(group, fair_options);
  ASSERT_TRUE(fair.Fit(data).ok());

  EXPECT_LT(dp_gap(fair), dp_gap(plain) * 0.6);
}

TEST(FairLogisticRegressionTest, Validation) {
  ml::Dataset data;
  data.features = {{1.0}, {2.0}};
  data.labels = {0, 1};
  FairLogisticRegression wrong_size({0}, {});
  EXPECT_FALSE(wrong_size.Fit(data).ok());
  FairLogisticRegression bad_group({0, 2}, {});
  EXPECT_FALSE(bad_group.Fit(data).ok());
  FairLogisticRegression one_group({0, 0}, {});
  EXPECT_FALSE(one_group.Fit(data).ok());
  FairLogisticRegression ok_model({0, 1}, {});
  std::vector<double> x = {1.0};
  EXPECT_TRUE(ok_model.PredictProba(x).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace fairlaw::mitigation
