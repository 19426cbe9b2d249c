// §II/§IV demo: produce a full compliance report for an audited hiring
// model — statutory frame, metric results mapped to discrimination
// doctrines, the EEOC four-fifths screen, and the §IV selection-criteria
// checklist.
#include <cstdio>

#include "audit/auditor.h"
#include "audit/source.h"
#include "legal/checklist.h"
#include "legal/four_fifths.h"
#include "legal/report.h"
#include "ml/logistic_regression.h"
#include "simulation/scenarios.h"

int main() {
  using fairlaw::stats::Rng;
  namespace audit = fairlaw::audit;
  namespace data = fairlaw::data;
  namespace legal = fairlaw::legal;
  namespace ml = fairlaw::ml;
  namespace sim = fairlaw::sim;

  // Biased hiring model, as in the other examples.
  Rng rng(12);
  sim::HiringOptions options;
  options.n = 8000;
  options.label_bias = 1.4;
  options.proxy_strength = 1.0;
  sim::ScenarioData scenario =
      sim::MakeHiringScenario(options, &rng).ValueOrDie();
  ml::Dataset dataset = ml::DatasetFromTable(scenario.table,
                                             scenario.feature_columns,
                                             scenario.label_column)
                            .ValueOrDie();
  ml::LogisticRegression model;
  (void)model.Fit(dataset);
  std::vector<int> predictions =
      model.PredictBatch(dataset.features).ValueOrDie();
  std::vector<int64_t> column(predictions.begin(), predictions.end());
  data::Table table =
      scenario.table
          .AddColumn("pred", data::Column::FromInt64s(column))
          .ValueOrDie();

  // Audit.
  audit::AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "pred";
  config.label_column = "merit";
  config.tolerance = 0.05;

  legal::ComplianceReportInputs inputs;
  inputs.system_name = "acme hiring recommender v2";
  inputs.jurisdiction = legal::Jurisdiction::kUs;
  inputs.protected_attribute = "sex";
  inputs.sector = "employment";
  const audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(table), config)
          .ValueOrDie();
  inputs.audit = result.ToLegalFindings();
  // The screen reads the group tallies behind the audit's
  // disparate_impact_ratio report; the table is not read again.
  inputs.four_fifths =
      legal::FourFifthsTest(
          result.Find("disparate_impact_ratio").ValueOrDie()->groups)
          .ValueOrDie();

  legal::UseCaseProfile profile;
  profile.use_case = "hiring recommendation";
  profile.jurisdiction = legal::Jurisdiction::kUs;
  profile.structural_bias_recognized = true;
  profile.proxies_suspected = true;
  profile.labels_reliable = false;  // labels are historical decisions
  profile.causal_model_available = true;
  profile.sample_size = table.num_rows();
  profile.smallest_group_size = 2500;
  inputs.checklist = legal::EvaluateChecklist(profile).ValueOrDie();

  std::printf("%s",
              legal::RenderComplianceReport(inputs).ValueOrDie().c_str());
  return 0;
}
