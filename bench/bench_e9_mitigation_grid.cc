// E9 — §V "no one-size-fits-all". Cross-grid of mitigation strategies x
// fairness metrics x scenarios: each mitigator wins on the criterion it
// targets and pays elsewhere (accuracy, or a non-target metric), so the
// choice must come from the use case and the legal layer, not from the
// algorithm shelf.
#include <cstdio>
#include <string>

#include "metrics/group_metrics.h"
#include "mitigation/reweighing.h"
#include "mitigation/randomized_eodds.h"
#include "mitigation/threshold_optimizer.h"
#include "ml/logistic_regression.h"
#include "ml/model_eval.h"
#include "simulation/scenarios.h"

namespace {

using fairlaw::metrics::MetricInput;
using fairlaw::stats::Rng;
namespace metrics = fairlaw::metrics;
namespace mitigation = fairlaw::mitigation;
namespace ml = fairlaw::ml;
namespace sim = fairlaw::sim;

struct Prepared {
  std::string name;
  ml::Dataset train;        // historical (biased) labels
  std::vector<std::string> groups;
  std::vector<int> merit;
};

Prepared Prepare(const std::string& name, const sim::ScenarioData& scenario) {
  Prepared out;
  out.name = name;
  out.train = ml::DatasetFromTable(scenario.table,
                                   scenario.feature_columns,
                                   scenario.label_column)
                  .ValueOrDie();
  const auto* group_col =
      scenario.table.GetColumn(scenario.protected_columns[0]).ValueOrDie();
  const auto* merit_col =
      scenario.table.GetColumn(scenario.merit_column).ValueOrDie();
  for (size_t i = 0; i < scenario.table.num_rows(); ++i) {
    out.groups.push_back(group_col->ValueToString(i));
    out.merit.push_back(
        static_cast<int>(merit_col->GetInt64(i).ValueOrDie()));
  }
  return out;
}

void Row(const Prepared& data, const std::string& mitigator,
         const std::vector<int>& decisions) {
  MetricInput input;
  input.groups = data.groups;
  input.predictions = decisions;
  input.labels = data.merit;  // evaluate against unbiased merit
  using metrics::MetricId;
  double dp = metrics::Evaluate(MetricId::kDemographicParity, input, 0.0)
                  .ValueOrDie()
                  .max_gap;
  double eo = metrics::Evaluate(MetricId::kEqualOpportunity, input, 0.0)
                  .ValueOrDie()
                  .max_gap;
  double di = metrics::Evaluate(MetricId::kDisparateImpactRatio, input, 0.8)
                  .ValueOrDie()
                  .min_ratio;
  double accuracy = ml::Accuracy(data.merit, decisions).ValueOrDie();
  std::printf("  %-18s acc=%.4f dp_gap=%.4f eo_gap=%.4f di_ratio=%.4f\n",
              mitigator.c_str(), accuracy, dp, eo, di);
}

void RunScenario(const Prepared& data) {
  std::printf("%s (n=%zu):\n", data.name.c_str(), data.train.size());

  // Baseline: plain model on biased labels.
  ml::LogisticRegression baseline;
  (void)baseline.Fit(data.train);
  std::vector<int> plain =
      baseline.PredictBatch(data.train.features).ValueOrDie();
  Row(data, "baseline", plain);

  // Pre-processing: reweighing.
  ml::Dataset reweighed = data.train;
  (void)mitigation::ApplyReweighing(data.groups, &reweighed);
  ml::LogisticRegression reweighed_model;
  (void)reweighed_model.Fit(reweighed);
  Row(data, "reweighing",
      reweighed_model.PredictBatch(data.train.features).ValueOrDie());

  // Post-processing: demographic-parity thresholds.
  std::vector<double> scores =
      baseline.PredictProbaBatch(data.train.features).ValueOrDie();
  mitigation::GroupThresholds dp_thresholds =
      mitigation::OptimizeThresholds(
          data.groups, scores, {},
          mitigation::ThresholdCriterion::kDemographicParity, {})
          .ValueOrDie();
  Row(data, "thresholds(DP)",
      dp_thresholds.Apply(data.groups, scores).ValueOrDie());

  // Post-processing: equal-opportunity thresholds against merit.
  mitigation::GroupThresholds eo_thresholds =
      mitigation::OptimizeThresholds(
          data.groups, scores, data.merit,
          mitigation::ThresholdCriterion::kEqualOpportunity, {})
          .ValueOrDie();
  Row(data, "thresholds(EOpp)",
      eo_thresholds.Apply(data.groups, scores).ValueOrDie());

  // Post-processing: exact randomized equalized odds against merit.
  mitigation::RandomizedEqualizedOdds randomized =
      mitigation::RandomizedEqualizedOdds::Fit(data.groups, scores,
                                               data.merit)
          .ValueOrDie();
  Rng apply_rng(7);
  Row(data, "randomized(EOdds)",
      randomized.Apply(data.groups, scores, &apply_rng).ValueOrDie());
}

}  // namespace

int main() {
  std::printf("=== E9: mitigation x metric x scenario grid (SS V) ===\n");
  std::printf("(all metrics evaluated against gender-blind merit)\n\n");
  Rng rng(55);
  {
    sim::HiringOptions options;
    options.n = 10000;
    options.label_bias = 1.2;
    options.proxy_strength = 1.2;
    RunScenario(
        Prepare("hiring", sim::MakeHiringScenario(options, &rng)
                              .ValueOrDie()));
  }
  {
    sim::LendingOptions options;
    options.n = 10000;
    options.label_bias = 1.2;
    RunScenario(
        Prepare("lending", sim::MakeLendingScenario(options, &rng)
                               .ValueOrDie()));
  }
  {
    sim::PromotionOptions options;
    options.n = 10000;
    options.subgroup_bias = 1.2;
    RunScenario(
        Prepare("promotion", sim::MakePromotionScenario(options, &rng)
                                 .ValueOrDie()));
  }
  std::printf("\nExpected shape: thresholds(DP) minimizes dp_gap and "
              "maximizes di_ratio; thresholds(EOpp) minimizes eo_gap; "
              "reweighing improves both moderately; nobody wins "
              "everything (SS V: no one-size-fits-all).\n");
  return 0;
}
