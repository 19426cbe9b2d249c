// The §III walk-through, end to end: generate historically biased hiring
// data, train an "unaware" model on it, audit all the paper's fairness
// definitions, apply reweighing, retrain, and re-audit. Shows the full
// generate -> train -> audit -> mitigate -> re-audit loop of the library.
#include <cstdio>
#include <span>

#include "audit/auditor.h"
#include "audit/source.h"
#include "metrics/counterfactual_fairness.h"
#include "mitigation/reweighing.h"
#include "ml/logistic_regression.h"
#include "simulation/scenarios.h"

namespace {

using fairlaw::stats::Rng;
namespace audit = fairlaw::audit;
namespace data = fairlaw::data;
namespace metrics = fairlaw::metrics;
namespace mitigation = fairlaw::mitigation;
namespace ml = fairlaw::ml;
namespace sim = fairlaw::sim;

fairlaw::Result<audit::AuditResult> AuditModel(
    const sim::ScenarioData& scenario, const ml::Classifier& model,
    const ml::Dataset& dataset) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<int> predictions,
                           model.PredictBatch(dataset.features));
  std::vector<int64_t> column(predictions.begin(), predictions.end());
  FAIRLAW_ASSIGN_OR_RETURN(
      data::Table table,
      scenario.table.AddColumn("pred",
                               data::Column::FromInt64s(column)));
  audit::AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "pred";
  config.label_column = "merit";  // audit against gender-blind merit
  config.tolerance = 0.05;
  return audit::Auditor::Run(audit::AuditSource::FromTable(table), config);
}

}  // namespace

int main() {
  Rng rng(2024);
  sim::HiringOptions options;
  options.n = 10000;
  options.label_bias = 1.5;     // historical discrimination in the labels
  options.proxy_strength = 1.2;  // university is a gender proxy
  sim::ScenarioData scenario =
      sim::MakeHiringScenario(options, &rng).ValueOrDie();
  std::printf("generated %zu applicants (features: university, "
              "experience, test_score)\n\n",
              scenario.table.num_rows());

  ml::Dataset dataset = ml::DatasetFromTable(scenario.table,
                                             scenario.feature_columns,
                                             scenario.label_column)
                            .ValueOrDie();

  // Step 1: train on the biased historical labels, gender excluded —
  // "fairness through unawareness".
  ml::LogisticRegression unaware;
  (void)unaware.Fit(dataset);
  std::printf("--- audit of the unaware model (trained on biased labels) "
              "---\n%s\n",
              AuditModel(scenario, unaware, dataset)
                  .ValueOrDie()
                  .Render()
                  .c_str());

  // Step 2: counterfactual-fairness audit (III-G): does flipping gender
  // in the causal model change the decision, even though the model never
  // sees gender?
  metrics::CounterfactualFairnessReport cf =
      metrics::AuditCounterfactualFairness(
          scenario.scm, scenario.sample, "gender", 0.0, 1.0,
          [&unaware](std::span<const double> x) {
            return unaware.Predict(x, /*threshold=*/0.5);
          },
          scenario.feature_columns)
          .ValueOrDie();
  std::printf("counterfactual fairness: %s\n\n", cf.detail.c_str());

  // Step 3: mitigate with reweighing and retrain.
  ml::Dataset reweighed = dataset;
  std::vector<std::string> genders;
  const auto* gender_col = scenario.table.GetColumn("gender").ValueOrDie();
  for (size_t i = 0; i < scenario.table.num_rows(); ++i) {
    genders.push_back(gender_col->GetString(i).ValueOrDie());
  }
  (void)mitigation::ApplyReweighing(genders, &reweighed);
  ml::LogisticRegression mitigated;
  (void)mitigated.Fit(reweighed);
  std::printf("--- audit after reweighing + retraining ---\n%s",
              AuditModel(scenario, mitigated, dataset)
                  .ValueOrDie()
                  .Render()
                  .c_str());
  return 0;
}
