// Cross-cutting property tests over randomized inputs (TEST_P sweeps):
// invariants every fairness metric and mitigator must satisfy regardless
// of the data.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "metrics/group_metrics.h"
#include "mitigation/di_remover.h"
#include "mitigation/reweighing.h"
#include "mitigation/threshold_optimizer.h"
#include "stats/distance.h"
#include "stats/rng.h"

namespace fairlaw {
namespace {

using metrics::MetricId;
using metrics::MetricInput;
using stats::Rng;

MetricInput RandomInput(Rng* rng, size_t n, double bias) {
  MetricInput input;
  for (size_t i = 0; i < n; ++i) {
    bool b = rng->Bernoulli(0.4);
    input.groups.push_back(b ? "b" : "a");
    input.labels.push_back(rng->Bernoulli(0.5) ? 1 : 0);
    double p = input.labels.back() == 1 ? 0.8 : 0.2;
    if (b) p -= bias;
    input.predictions.push_back(rng->Bernoulli(p) ? 1 : 0);
  }
  // Guarantee every (group,label) cell is non-empty so all metrics are
  // defined.
  input.groups.insert(input.groups.end(), {"a", "a", "b", "b"});
  input.labels.insert(input.labels.end(), {0, 1, 0, 1});
  input.predictions.insert(input.predictions.end(), {0, 1, 0, 1});
  return input;
}

class MetricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricPropertyTest, ConstantClassifierSatisfiesDemographicParity) {
  Rng rng(GetParam());
  MetricInput input = RandomInput(&rng, 300, 0.3);
  for (int constant : {0, 1}) {
    MetricInput degenerate = input;
    std::fill(degenerate.predictions.begin(), degenerate.predictions.end(),
              constant);
    metrics::MetricReport report =
        metrics::Evaluate(MetricId::kDemographicParity, degenerate, 0.0)
            .ValueOrDie();
    EXPECT_TRUE(report.satisfied);
    EXPECT_DOUBLE_EQ(report.max_gap, 0.0);
  }
}

TEST_P(MetricPropertyTest, PerfectClassifierSatisfiesEqualizedOdds) {
  Rng rng(GetParam());
  MetricInput input = RandomInput(&rng, 300, 0.3);
  input.predictions = input.labels;  // oracle
  metrics::MetricReport report =
      metrics::Evaluate(MetricId::kEqualizedOdds, input, 0.0).ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_DOUBLE_EQ(report.max_gap, 0.0);
  // And equal opportunity, being weaker, holds too.
  EXPECT_TRUE(metrics::Evaluate(MetricId::kEqualOpportunity, input, 0.0)
                  .ValueOrDie()
                  .satisfied);
}

TEST_P(MetricPropertyTest, GroupRelabelingLeavesGapsInvariant) {
  Rng rng(GetParam());
  MetricInput input = RandomInput(&rng, 300, 0.2);
  MetricInput renamed = input;
  for (std::string& group : renamed.groups) {
    group = group == "a" ? "zeta" : "alpha";
  }
  for (MetricId id : {MetricId::kDemographicParity, MetricId::kEqualizedOdds}) {
    EXPECT_DOUBLE_EQ(metrics::Evaluate(id, input, 0.0).ValueOrDie().max_gap,
                     metrics::Evaluate(id, renamed, 0.0).ValueOrDie().max_gap);
  }
}

TEST_P(MetricPropertyTest, GapBoundsAndRatioConsistency) {
  Rng rng(GetParam());
  MetricInput input = RandomInput(&rng, 300, rng.Uniform(0.0, 0.5));
  for (MetricId id :
       {MetricId::kDemographicParity, MetricId::kEqualOpportunity}) {
    metrics::MetricReport report =
        metrics::Evaluate(id, input, 0.0).ValueOrDie();
    EXPECT_GE(report.max_gap, 0.0);
    EXPECT_LE(report.max_gap, 1.0);
    EXPECT_GE(report.min_ratio, 0.0);
    EXPECT_LE(report.min_ratio, 1.0 + 1e-12);
    // Zero gap implies ratio 1, and satisfied at zero tolerance.
    if (report.max_gap == 0.0) {
      EXPECT_TRUE(report.satisfied);
    }
  }
}

TEST_P(MetricPropertyTest, DuplicatingEveryRowLeavesRatesInvariant) {
  Rng rng(GetParam());
  MetricInput input = RandomInput(&rng, 200, 0.25);
  MetricInput doubled = input;
  doubled.groups.insert(doubled.groups.end(), input.groups.begin(),
                        input.groups.end());
  doubled.predictions.insert(doubled.predictions.end(),
                             input.predictions.begin(),
                             input.predictions.end());
  doubled.labels.insert(doubled.labels.end(), input.labels.begin(),
                        input.labels.end());
  EXPECT_NEAR(metrics::Evaluate(MetricId::kDemographicParity, input, 0.0)
                  .ValueOrDie()
                  .max_gap,
              metrics::Evaluate(MetricId::kDemographicParity, doubled, 0.0)
                  .ValueOrDie()
                  .max_gap,
              1e-12);
}

TEST_P(MetricPropertyTest, ReweighingAlwaysRestoresIndependence) {
  Rng rng(GetParam());
  MetricInput input = RandomInput(&rng, 400, rng.Uniform(0.0, 0.5));
  std::vector<double> weights =
      mitigation::ReweighingWeights(input.groups, input.labels)
          .ValueOrDie();
  std::map<std::string, double> positive;
  std::map<std::string, double> total;
  double grand_positive = 0.0;
  double grand_total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_GT(weights[i], 0.0);
    total[input.groups[i]] += weights[i];
    grand_total += weights[i];
    if (input.labels[i] == 1) {
      positive[input.groups[i]] += weights[i];
      grand_positive += weights[i];
    }
  }
  double overall = grand_positive / grand_total;
  for (const auto& [group, group_total] : total) {
    EXPECT_NEAR(positive[group] / group_total, overall, 1e-9)
        << "group " << group;
  }
}

TEST_P(MetricPropertyTest, FullRepairShrinksGroupKsDistance) {
  Rng rng(GetParam());
  size_t n = 600;
  std::vector<std::string> groups(n);
  std::vector<double> values(n);
  double shift = rng.Uniform(1.0, 3.0);
  for (size_t i = 0; i < n; ++i) {
    bool b = rng.Bernoulli(0.5);
    groups[i] = b ? "b" : "a";
    values[i] = rng.Normal(b ? shift : 0.0, 1.0);
  }
  auto ks_between_groups = [&](const std::vector<double>& column) {
    std::vector<double> a;
    std::vector<double> b;
    for (size_t i = 0; i < n; ++i) {
      (groups[i] == "a" ? a : b).push_back(column[i]);
    }
    return stats::KolmogorovSmirnov(a, b).ValueOrDie();
  };
  std::vector<double> repaired =
      mitigation::RepairFeature(groups, values, 1.0).ValueOrDie();
  EXPECT_LT(ks_between_groups(repaired), ks_between_groups(values) * 0.5);
}

TEST_P(MetricPropertyTest, DpThresholdsHitTargetRateOnRandomScores) {
  Rng rng(GetParam());
  size_t n = 2000;
  std::vector<std::string> groups(n);
  std::vector<double> scores(n);
  double shift = rng.Uniform(0.0, 2.0);
  for (size_t i = 0; i < n; ++i) {
    bool b = rng.Bernoulli(0.5);
    groups[i] = b ? "b" : "a";
    scores[i] = rng.Normal(b ? -shift : 0.0, 1.0);
  }
  double target = rng.Uniform(0.1, 0.9);
  mitigation::ThresholdOptimizerOptions options;
  options.target_rate = target;
  mitigation::GroupThresholds thresholds =
      mitigation::OptimizeThresholds(
          groups, scores, {},
          mitigation::ThresholdCriterion::kDemographicParity, options)
          .ValueOrDie();
  std::vector<int> predictions =
      thresholds.Apply(groups, scores).ValueOrDie();
  std::map<std::string, std::pair<double, double>> rates;
  for (size_t i = 0; i < n; ++i) {
    rates[groups[i]].first += predictions[i];
    rates[groups[i]].second += 1.0;
  }
  for (const auto& [group, pair] : rates) {
    EXPECT_NEAR(pair.first / pair.second, target, 0.06) << group;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

}  // namespace
}  // namespace fairlaw
