// §IV selection-criteria checklist and the compliance report renderer.
#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/source.h"
#include "data/csv.h"
#include "legal/checklist.h"
#include "legal/report.h"

namespace fairlaw::legal {
namespace {

TEST(ChecklistTest, StructuralBiasYieldsOutcomeFamily) {
  UseCaseProfile profile;
  profile.use_case = "hiring";
  profile.structural_bias_recognized = true;
  profile.positive_action_mandated = true;
  ChecklistReport report = EvaluateChecklist(profile).ValueOrDie();
  bool has_dp = false;
  bool has_cdd = false;
  for (const Recommendation& rec : report.metrics) {
    if (rec.metric == "demographic_parity") has_dp = true;
    if (rec.metric == "conditional_demographic_disparity") has_cdd = true;
  }
  EXPECT_TRUE(has_dp);
  EXPECT_TRUE(has_cdd);
  // Quota mandate requires proportionality review.
  bool quota_audit = false;
  for (const std::string& audit : report.required_audits) {
    if (audit.find("quota") != std::string::npos) quota_audit = true;
  }
  EXPECT_TRUE(quota_audit);
}

TEST(ChecklistTest, UnreliableLabelsWarnAgainstEqualTreatmentMetrics) {
  UseCaseProfile profile;
  profile.labels_reliable = false;
  ChecklistReport report = EvaluateChecklist(profile).ValueOrDie();
  for (const Recommendation& rec : report.metrics) {
    EXPECT_NE(rec.metric, "equal_opportunity");
    EXPECT_NE(rec.metric, "equalized_odds");
  }
  bool warned = false;
  for (const std::string& warning : report.warnings) {
    if (warning.find("bias preservation") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

TEST(ChecklistTest, ReliableLabelsEnableEqualTreatmentMetrics) {
  UseCaseProfile profile;
  profile.labels_reliable = true;
  ChecklistReport report = EvaluateChecklist(profile).ValueOrDie();
  bool has_eo = false;
  for (const Recommendation& rec : report.metrics) {
    if (rec.metric == "equal_opportunity") has_eo = true;
  }
  EXPECT_TRUE(has_eo);
}

TEST(ChecklistTest, CausalModelPutsCounterfactualFirst) {
  UseCaseProfile profile;
  profile.causal_model_available = true;
  profile.labels_reliable = true;
  ChecklistReport report = EvaluateChecklist(profile).ValueOrDie();
  ASSERT_FALSE(report.metrics.empty());
  EXPECT_EQ(report.metrics[0].metric, "counterfactual_fairness");
  EXPECT_EQ(report.metrics[0].priority, 1);
}

TEST(ChecklistTest, RiskFlagsMandateAudits) {
  UseCaseProfile profile;
  profile.proxies_suspected = true;
  profile.multiple_sensitive_attributes = true;
  profile.feedback_risk = true;
  profile.adversarial_risk = true;
  profile.sample_size = 1000;
  profile.smallest_group_size = 12;
  ChecklistReport report = EvaluateChecklist(profile).ValueOrDie();
  EXPECT_GE(report.required_audits.size(), 4u);
  bool sampling_warning = false;
  for (const std::string& warning : report.warnings) {
    if (warning.find("fewer than 30") != std::string::npos) {
      sampling_warning = true;
    }
  }
  EXPECT_TRUE(sampling_warning);
}

TEST(ChecklistTest, JurisdictionPicksTheLegalScreen) {
  UseCaseProfile us;
  us.jurisdiction = Jurisdiction::kUs;
  ChecklistReport us_report = EvaluateChecklist(us).ValueOrDie();
  bool has_di = false;
  for (const Recommendation& rec : us_report.metrics) {
    if (rec.metric == "disparate_impact_ratio") has_di = true;
  }
  EXPECT_TRUE(has_di);

  UseCaseProfile eu;
  eu.jurisdiction = Jurisdiction::kEu;
  ChecklistReport eu_report = EvaluateChecklist(eu).ValueOrDie();
  bool has_csp = false;
  for (const Recommendation& rec : eu_report.metrics) {
    if (rec.metric == "conditional_statistical_parity") has_csp = true;
  }
  EXPECT_TRUE(has_csp);
}

TEST(ChecklistTest, RenderListsEverything) {
  UseCaseProfile profile;
  profile.structural_bias_recognized = true;
  profile.proxies_suspected = true;
  ChecklistReport report = EvaluateChecklist(profile).ValueOrDie();
  std::string text = report.Render();
  EXPECT_NE(text.find("demographic_parity"), std::string::npos);
  EXPECT_NE(text.find("proxy audit"), std::string::npos);
}

TEST(ChecklistTest, Validation) {
  UseCaseProfile profile;
  profile.sample_size = 10;
  profile.smallest_group_size = 100;
  EXPECT_FALSE(EvaluateChecklist(profile).ok());
}

TEST(ComplianceReportTest, FullRender) {
  data::Table table = data::ReadCsvString(
                          "sex,pred,label\n"
                          "male,1,1\nmale,1,0\nmale,1,1\nmale,0,0\n"
                          "female,1,1\nfemale,0,1\nfemale,0,0\nfemale,0,0\n")
                          .ValueOrDie();
  audit::AuditConfig config;
  config.protected_column = "sex";
  config.prediction_column = "pred";
  config.label_column = "label";
  ComplianceReportInputs inputs;
  inputs.system_name = "acme-hiring";
  inputs.jurisdiction = Jurisdiction::kUs;
  inputs.protected_attribute = "sex";
  inputs.sector = "employment";
  inputs.audit =
      audit::Auditor::Run(audit::AuditSource::FromTable(table), config)
          .ValueOrDie().ToLegalFindings();
  inputs.four_fifths =
      FourFifthsTest(audit::MetricInputFromTable(table, "sex", "pred", "")
                         .ValueOrDie())
          .ValueOrDie();
  UseCaseProfile profile;
  profile.jurisdiction = Jurisdiction::kUs;
  profile.structural_bias_recognized = true;
  inputs.checklist = EvaluateChecklist(profile).ValueOrDie();

  std::string report = RenderComplianceReport(inputs).ValueOrDie();
  EXPECT_NE(report.find("acme-hiring"), std::string::npos);
  EXPECT_NE(report.find("Title VII"), std::string::npos);  // statutory frame
  EXPECT_NE(report.find("equality concept"), std::string::npos);
  EXPECT_NE(report.find("four-fifths"), std::string::npos);
  EXPECT_NE(report.find("disparate impact"), std::string::npos);
}

TEST(ComplianceReportTest, Validation) {
  ComplianceReportInputs inputs;
  EXPECT_FALSE(RenderComplianceReport(inputs).ok());
}

}  // namespace
}  // namespace fairlaw::legal
