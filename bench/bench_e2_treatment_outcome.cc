// E2 — §IV-A equal treatment vs equal outcome. Sweeps the historical
// label bias of the hiring scenario, trains an unaware model, and
// contrasts three policies: score-only selection (formal equal
// treatment), a fairness-regularized model (in-processing), and an
// affirmative-action quota (positive action). Reports the accuracy /
// parity frontier the two equality concepts trade along.
#include <cstdio>

#include "metrics/group_metrics.h"
#include "mitigation/quota.h"
#include "mitigation/regularized_lr.h"
#include "ml/logistic_regression.h"
#include "ml/model_eval.h"
#include "simulation/scenarios.h"

namespace {

using fairlaw::metrics::Evaluate;
using fairlaw::metrics::MetricId;
using fairlaw::metrics::MetricInput;
using fairlaw::stats::Rng;
namespace ml = fairlaw::ml;
namespace mitigation = fairlaw::mitigation;
namespace sim = fairlaw::sim;

struct Materialized {
  ml::Dataset dataset;        // labels = biased historical decisions
  std::vector<int> merit;     // gender-blind ground truth
  std::vector<std::string> genders;
  std::vector<int> group_indicator;  // 1 = female
};

Materialized Materialize(double label_bias, Rng* rng) {
  sim::HiringOptions options;
  options.n = 12000;
  options.label_bias = label_bias;
  options.proxy_strength = 1.0;
  sim::ScenarioData scenario =
      sim::MakeHiringScenario(options, rng).ValueOrDie();
  Materialized out;
  out.dataset = ml::DatasetFromTable(scenario.table,
                                     scenario.feature_columns,
                                     scenario.label_column)
                    .ValueOrDie();
  const auto* merit_col = scenario.table.GetColumn("merit").ValueOrDie();
  const auto* gender_col = scenario.table.GetColumn("gender").ValueOrDie();
  for (size_t i = 0; i < scenario.table.num_rows(); ++i) {
    out.merit.push_back(
        static_cast<int>(merit_col->GetInt64(i).ValueOrDie()));
    std::string gender = gender_col->GetString(i).ValueOrDie();
    out.genders.push_back(gender);
    out.group_indicator.push_back(gender == "female" ? 1 : 0);
  }
  return out;
}

struct PolicyOutcome {
  double accuracy_vs_merit;
  double dp_gap;
};

PolicyOutcome Evaluate(const Materialized& data,
                       const std::vector<int>& decisions) {
  MetricInput input;
  input.groups = data.genders;
  input.predictions = decisions;
  PolicyOutcome outcome;
  outcome.dp_gap = Evaluate(MetricId::kDemographicParity, input, 0.0)
                       .ValueOrDie()
                       .max_gap;
  outcome.accuracy_vs_merit =
      ml::Accuracy(data.merit, decisions).ValueOrDie();
  return outcome;
}

}  // namespace

int main() {
  std::printf("=== E2: equal treatment vs equal outcome (SS IV-A) ===\n");
  std::printf("%-6s | %-22s | %-22s | %-22s\n", "bias",
              "score-only (treatment)", "fair-LR lambda=20",
              "1/3 quota (outcome)");
  std::printf("%-6s | %-10s %-10s | %-10s %-10s | %-10s %-10s\n", "beta",
              "acc", "dp_gap", "acc", "dp_gap", "acc", "dp_gap");
  for (double bias : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    Rng rng(42);
    Materialized data = Materialize(bias, &rng);

    // Policy 1: plain unaware model at threshold 0.5.
    ml::LogisticRegression model;
    (void)model.Fit(data.dataset);
    std::vector<int> plain =
        model.PredictBatch(data.dataset.features).ValueOrDie();
    PolicyOutcome treatment = Evaluate(data, plain);

    // Policy 2: fairness-regularized logistic regression.
    mitigation::FairLrOptions fair_options;
    fair_options.fairness_weight = 20.0;
    mitigation::FairLogisticRegression fair(data.group_indicator,
                                            fair_options);
    (void)fair.Fit(data.dataset);
    std::vector<int> regularized =
        fair.PredictBatch(data.dataset.features).ValueOrDie();
    PolicyOutcome in_processing = Evaluate(data, regularized);

    // Policy 3: quota over the plain model's scores (positive action).
    std::vector<double> scores =
        model.PredictProbaBatch(data.dataset.features).ValueOrDie();
    size_t hires = 0;
    for (int d : plain) hires += d;
    mitigation::QuotaOptions quota_options;
    quota_options.total_selections = hires > 0 ? hires : 1;
    quota_options.min_share = {{"female", 1.0 / 3.0}};
    mitigation::QuotaSelection quota =
        mitigation::SelectWithQuota(data.genders, scores, quota_options)
            .ValueOrDie();
    PolicyOutcome outcome = Evaluate(data, quota.selected);

    std::printf("%-6.2f | %-10.4f %-10.4f | %-10.4f %-10.4f | %-10.4f "
                "%-10.4f\n",
                bias, treatment.accuracy_vs_merit, treatment.dp_gap,
                in_processing.accuracy_vs_merit, in_processing.dp_gap,
                outcome.accuracy_vs_merit, outcome.dp_gap);
  }
  std::printf("\nExpected shape: the score-only column's dp_gap grows with "
              "the injected bias while the mitigated columns stay low at a "
              "modest accuracy cost.\n");
  return 0;
}
