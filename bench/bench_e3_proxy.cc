// E3 — §IV-B proxy discrimination / fairness through unawareness.
// Sweeps the gender->university proxy strength; at each level trains
// (1) an aware model (gender as a feature), (2) an unaware model
// (gender removed), and (3) an unaware model on repaired features
// (disparate-impact remover). Also runs the proxy detector and a
// counterfactual-fairness audit of the unaware model. The headline: the
// unaware model's gap tracks the aware model's once proxies are strong —
// removing the protected attribute is not fairness.
#include <cstdio>

#include "audit/proxy.h"
#include "metrics/counterfactual_fairness.h"
#include "metrics/group_metrics.h"
#include "mitigation/di_remover.h"
#include "ml/logistic_regression.h"
#include "simulation/scenarios.h"

namespace {

using fairlaw::metrics::Evaluate;
using fairlaw::metrics::MetricId;
using fairlaw::metrics::MetricInput;
using fairlaw::stats::Rng;
namespace audit = fairlaw::audit;
namespace metrics = fairlaw::metrics;
namespace mitigation = fairlaw::mitigation;
namespace ml = fairlaw::ml;
namespace sim = fairlaw::sim;

double DpGapOfModel(const ml::Classifier& model,
                    const std::vector<std::vector<double>>& features,
                    const std::vector<std::string>& genders) {
  MetricInput input;
  input.groups = genders;
  input.predictions = model.PredictBatch(features).ValueOrDie();
  return Evaluate(MetricId::kDemographicParity, input, 0.0)
      .ValueOrDie()
      .max_gap;
}

}  // namespace

int main() {
  std::printf("=== E3: proxy discrimination & unawareness (SS IV-B) ===\n");
  std::printf("%-6s %-10s %-10s %-10s %-10s %-10s\n", "rho",
              "proxy_V", "aware_gap", "unaware", "repaired", "cf_flip");
  for (double rho : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    Rng rng(7);
    sim::HiringOptions options;
    options.n = 10000;
    options.label_bias = 1.2;
    options.proxy_strength = rho;
    sim::ScenarioData scenario =
        sim::MakeHiringScenario(options, &rng).ValueOrDie();

    std::vector<std::string> genders(scenario.table.num_rows());
    const auto* gender_col =
        scenario.table.GetColumn("gender").ValueOrDie();
    for (size_t i = 0; i < genders.size(); ++i) {
      genders[i] = gender_col->GetString(i).ValueOrDie();
    }

    // Proxy detector score for university.
    auto findings = audit::DetectProxies(scenario.table, "gender",
                                         {"university"})
                        .ValueOrDie();
    double proxy_v = findings[0].cramers_v;

    // (1) aware model: gender + features.
    ml::Dataset aware = ml::DatasetFromTable(scenario.table,
                                             scenario.feature_columns,
                                             scenario.label_column)
                            .ValueOrDie();
    ml::Dataset with_gender = aware;
    with_gender.feature_names.insert(with_gender.feature_names.begin(),
                                     "gender");
    for (size_t i = 0; i < with_gender.size(); ++i) {
      with_gender.features[i].insert(
          with_gender.features[i].begin(),
          genders[i] == "female" ? 1.0 : 0.0);
    }
    ml::LogisticRegression aware_model;
    (void)aware_model.Fit(with_gender);
    double aware_gap =
        DpGapOfModel(aware_model, with_gender.features, genders);

    // (2) unaware model (fairness through unawareness).
    ml::LogisticRegression unaware_model;
    (void)unaware_model.Fit(aware);
    double unaware_gap =
        DpGapOfModel(unaware_model, aware.features, genders);

    // (3) unaware model on fully repaired features.
    ml::Dataset repaired = aware;
    (void)mitigation::RepairFeatures(genders, &repaired.features,
                                     {0, 1, 2}, 1.0);
    ml::LogisticRegression repaired_model;
    (void)repaired_model.Fit(repaired);
    double repaired_gap =
        DpGapOfModel(repaired_model, repaired.features, genders);

    // Counterfactual audit of the unaware model (III-G applied to IV-B):
    // flips despite never seeing gender.
    metrics::CounterfactualFairnessReport cf =
        metrics::AuditCounterfactualFairness(
            scenario.scm, scenario.sample, "gender", 0.0, 1.0,
            [&unaware_model](std::span<const double> x) {
              return unaware_model.Predict(x, 0.5);
            },
            scenario.feature_columns)
            .ValueOrDie();

    std::printf("%-6.2f %-10.3f %-10.4f %-10.4f %-10.4f %-10.4f\n", rho,
                proxy_v, aware_gap, unaware_gap, repaired_gap,
                cf.flip_rate);
  }
  std::printf("\nExpected shape: unaware_gap approaches aware_gap as rho "
              "grows (unawareness fails); repaired_gap stays low; the "
              "counterfactual flip rate of the 'unaware' model grows with "
              "rho.\n");
  return 0;
}
