// Exact randomized equalized-odds post-processing (Hardt et al.).
#include <gtest/gtest.h>

#include <map>

#include "metrics/group_metrics.h"
#include "mitigation/randomized_eodds.h"
#include "stats/rng.h"

namespace fairlaw::mitigation {
namespace {

using fairlaw::stats::Rng;

struct Scored {
  std::vector<std::string> groups;
  std::vector<double> scores;
  std::vector<int> labels;
};

/// Group b's scores are shifted down AND noisier, so the two ROC curves
/// genuinely differ — the case deterministic thresholds cannot equalize.
Scored MakeScored(size_t n, uint64_t seed) {
  Rng rng(seed);
  Scored data;
  for (size_t i = 0; i < n; ++i) {
    bool b = rng.Bernoulli(0.5);
    int label = rng.Bernoulli(0.5) ? 1 : 0;
    double quality = b ? 1.0 : 2.0;  // group b scores are less informative
    double score = label == 1 ? rng.Normal(quality, 1.0)
                              : rng.Normal(0.0, 1.0);
    if (b) score -= 0.5;
    data.groups.push_back(b ? "b" : "a");
    data.scores.push_back(score);
    data.labels.push_back(label);
  }
  return data;
}

metrics::MetricInput Evaluate(const Scored& data,
                              const std::vector<int>& decisions) {
  metrics::MetricInput input;
  input.groups = data.groups;
  input.predictions = decisions;
  input.labels = data.labels;
  return input;
}

TEST(RandomizedEOddsTest, EqualizesBothRatesInExpectation) {
  Scored data = MakeScored(20000, 7);
  RandomizedEqualizedOdds rule =
      RandomizedEqualizedOdds::Fit(data.groups, data.scores, data.labels)
          .ValueOrDie();
  Rng rng(11);
  std::vector<int> decisions =
      rule.Apply(data.groups, data.scores, &rng).ValueOrDie();
  metrics::MetricReport report =
      metrics::Evaluate(metrics::MetricId::kEqualizedOdds,
                        Evaluate(data, decisions), 0.03)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied) << metrics::RenderReport(report);
  // Rates land near the fitted target point.
  for (const metrics::GroupStats& gs : report.groups) {
    EXPECT_NEAR(gs.tpr, rule.target_tpr(), 0.03) << gs.group;
    EXPECT_NEAR(gs.fpr, rule.target_fpr(), 0.03) << gs.group;
  }
  // The target is a useful operating point, not the trivial corner.
  EXPECT_GT(rule.target_tpr(), rule.target_fpr() + 0.2);
}

TEST(RandomizedEOddsTest, TargetLiesOnLowerEnvelope) {
  // The shared target TPR cannot exceed what the weaker group's ROC
  // supports; with group b strictly less informative, the target is
  // below group a's achievable TPR at that FPR.
  Scored data = MakeScored(20000, 13);
  RandomizedEqualizedOdds rule =
      RandomizedEqualizedOdds::Fit(data.groups, data.scores, data.labels)
          .ValueOrDie();
  EXPECT_LE(rule.target_tpr(), 1.0);
  EXPECT_GE(rule.target_tpr(), rule.target_fpr());
}

TEST(RandomizedEOddsTest, ProbabilitiesAreValidAndMonotoneInScore) {
  Scored data = MakeScored(4000, 17);
  RandomizedEqualizedOdds rule =
      RandomizedEqualizedOdds::Fit(data.groups, data.scores, data.labels)
          .ValueOrDie();
  double previous = -1.0;
  for (double score : {-3.0, -1.0, 0.0, 1.0, 3.0}) {
    double p = rule.PositiveProbability("a", score).ValueOrDie();
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_GE(p, previous);  // mixtures of threshold rules are monotone
    previous = p;
  }
  EXPECT_TRUE(rule.PositiveProbability("zzz", 0.0).status().IsNotFound());
}

TEST(RandomizedEOddsTest, Validation) {
  Rng rng(1);
  std::vector<std::string> one_group = {"a", "a"};
  std::vector<double> scores = {0.1, 0.9};
  std::vector<int> labels = {0, 1};
  EXPECT_FALSE(
      RandomizedEqualizedOdds::Fit(one_group, scores, labels).ok());
  std::vector<std::string> groups = {"a", "b"};
  EXPECT_FALSE(RandomizedEqualizedOdds::Fit(groups, scores, {0, 2}).ok());
  EXPECT_FALSE(RandomizedEqualizedOdds::Fit(groups, {0.1}, labels).ok());
  // Group without positives.
  std::vector<std::string> four = {"a", "a", "b", "b"};
  std::vector<double> s4 = {0.1, 0.9, 0.2, 0.8};
  std::vector<int> no_pos_in_b = {0, 1, 0, 0};
  EXPECT_FALSE(RandomizedEqualizedOdds::Fit(four, s4, no_pos_in_b).ok());
  // Apply validation.
  std::vector<int> ok_labels = {0, 1, 0, 1};
  RandomizedEqualizedOdds rule =
      RandomizedEqualizedOdds::Fit(four, s4, ok_labels).ValueOrDie();
  EXPECT_FALSE(rule.Apply({"a"}, {0.5, 0.6}, &rng).ok());
  std::vector<std::string> g1 = {"a"};
  std::vector<double> sc1 = {0.5};
  EXPECT_FALSE(rule.Apply(g1, sc1, nullptr).ok());
}

}  // namespace
}  // namespace fairlaw::mitigation
