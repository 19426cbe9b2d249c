// Admissions scenario + calibration-within-groups wired into Auditor::Run.
#include <gtest/gtest.h>

#include <algorithm>

#include "audit/auditor.h"
#include "audit/proxy.h"
#include "audit/source.h"
#include "simulation/scenarios.h"

namespace fairlaw {
namespace {

using fairlaw::stats::Rng;

TEST(AdmissionsScenarioTest, StructuralChannelsPresent) {
  Rng rng(3);
  sim::AdmissionsOptions options;
  options.n = 8000;
  sim::ScenarioData scenario =
      sim::MakeAdmissionsScenario(options, &rng).ValueOrDie();
  EXPECT_EQ(scenario.protected_columns,
            (std::vector<std::string>{"first_gen"}));

  // Historical admissions disadvantage first-gen applicants...
  audit::AuditConfig config;
  config.protected_column = "first_gen";
  config.prediction_column = "admitted";
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table), config)
          .ValueOrDie();
  EXPECT_GT(result.Find("demographic_parity").ValueOrDie()->max_gap, 0.1);

  // ...while merit is blind to first-gen status.
  config.prediction_column = "merit";
  audit::AuditResult merit =
      audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table), config)
          .ValueOrDie();
  EXPECT_LT(merit.Find("demographic_parity").ValueOrDie()->max_gap, 0.05);

  // test_score and legacy (through legacy_latent) are structural
  // descendants of first_gen; gpa is clean.
  auto has_first_gen_parent = [&](const std::string& node) {
    const std::vector<std::string>& parents =
        scenario.scm.nodes()[scenario.scm.NodeIndex(node).ValueOrDie()]
            .parents;
    return std::ranges::find(parents, "first_gen") != parents.end();
  };
  EXPECT_TRUE(has_first_gen_parent("test_score"));
  EXPECT_TRUE(has_first_gen_parent("legacy_latent"));
  EXPECT_FALSE(has_first_gen_parent("gpa"));

  // The statistical proxy detector agrees on the strong channels.
  auto findings = audit::DetectProxies(scenario.table, "first_gen",
                                       {"gpa", "test_score", "legacy"})
                      .ValueOrDie();
  for (const audit::ProxyFinding& finding : findings) {
    if (finding.feature == "gpa") {
      EXPECT_FALSE(finding.flagged);
    }
    if (finding.feature == "legacy") {
      EXPECT_TRUE(finding.flagged);
    }
  }
}

TEST(AdmissionsScenarioTest, Validation) {
  Rng rng(5);
  sim::AdmissionsOptions options;
  options.n = 5;
  EXPECT_FALSE(sim::MakeAdmissionsScenario(options, &rng).ok());
  options.n = 100;
  options.first_gen_share = 1.0;
  EXPECT_FALSE(sim::MakeAdmissionsScenario(options, &rng).ok());
}

data::Table ScoredTable(bool miscalibrated_for_b) {
  // Scores 0.8/0.2; group a outcomes match the scores, group b outcomes
  // optionally don't.
  Rng rng(9);
  std::vector<std::string> groups;
  std::vector<double> scores;
  std::vector<int64_t> predictions;
  std::vector<int64_t> labels;
  for (int i = 0; i < 2000; ++i) {
    bool b = i % 2 == 0;
    double score = rng.Bernoulli(0.5) ? 0.8 : 0.2;
    double outcome_rate = score;
    if (b && miscalibrated_for_b) outcome_rate = score - 0.15;
    groups.push_back(b ? "b" : "a");
    scores.push_back(score);
    predictions.push_back(score >= 0.5 ? 1 : 0);
    labels.push_back(rng.Bernoulli(outcome_rate) ? 1 : 0);
  }
  auto schema =
      data::Schema::Make({{"g", data::DataType::kString},
                          {"score", data::DataType::kDouble},
                          {"pred", data::DataType::kInt64},
                          {"label", data::DataType::kInt64}})
          .ValueOrDie();
  return data::Table::Make(
             schema,
             {data::Column::FromStrings(groups),
              data::Column::FromDoubles(scores),
              data::Column::FromInt64s(predictions),
              data::Column::FromInt64s(labels)})
      .ValueOrDie();
}

TEST(CalibrationInAuditTest, MiscalibratedGroupFlagsTheAudit) {
  data::Table table = ScoredTable(/*miscalibrated_for_b=*/true);
  audit::AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "pred";
  config.label_column = "label";
  config.score_column = "score";
  config.calibration_tolerance = 0.05;
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(table), config)
          .ValueOrDie();
  ASSERT_TRUE(result.calibration.has_value());
  EXPECT_FALSE(result.calibration->satisfied);
  EXPECT_GT(result.calibration->max_ece, 0.08);
  // The worse-calibrated group is b.
  double ece_a = 0.0;
  double ece_b = 0.0;
  for (const metrics::GroupCalibration& gc : result.calibration->groups) {
    (gc.group == "a" ? ece_a : ece_b) = gc.ece;
  }
  EXPECT_GT(ece_b, ece_a);
  EXPECT_NE(result.Render().find("calibration_within_groups"),
            std::string::npos);
}

TEST(CalibrationInAuditTest, WellCalibratedPasses) {
  data::Table table = ScoredTable(/*miscalibrated_for_b=*/false);
  audit::AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "pred";
  config.label_column = "label";
  config.score_column = "score";
  config.calibration_tolerance = 0.06;
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(table), config)
          .ValueOrDie();
  ASSERT_TRUE(result.calibration.has_value());
  EXPECT_TRUE(result.calibration->satisfied);
}

TEST(CalibrationInAuditTest, ScoreColumnRequiresLabels) {
  data::Table table = ScoredTable(false);
  audit::AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "pred";
  config.score_column = "score";  // no label column
  EXPECT_FALSE(
      audit::Auditor::Run(audit::AuditSource::FromTable(table), config).ok());
}

}  // namespace
}  // namespace fairlaw
