#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/proxy.h"
#include "audit/source.h"
#include "audit/subgroup.h"
#include "simulation/scenarios.h"

namespace fairlaw::sim {
namespace {

using fairlaw::stats::Rng;

TEST(HiringScenarioTest, ShapeAndShares) {
  Rng rng(3);
  HiringOptions options;
  options.n = 6000;
  ScenarioData scenario = MakeHiringScenario(options, &rng).ValueOrDie();
  EXPECT_EQ(scenario.table.num_rows(), 6000u);
  EXPECT_EQ(scenario.protected_columns,
            (std::vector<std::string>{"gender"}));
  // Female share near 1/3.
  const data::Column* gender =
      scenario.table.GetColumn("gender").ValueOrDie();
  size_t female = 0;
  for (size_t row = 0; row < gender->size(); ++row) {
    if (gender->ValueToString(row) == "female") ++female;
  }
  EXPECT_NEAR(static_cast<double>(female) / 6000.0, 1.0 / 3.0, 0.03);
}

TEST(HiringScenarioTest, LabelBiasShowsUpInHistoricalDecisions) {
  Rng rng(5);
  HiringOptions biased;
  biased.n = 8000;
  biased.label_bias = 1.5;
  ScenarioData scenario = MakeHiringScenario(biased, &rng).ValueOrDie();
  audit::AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "hired";  // audit the historical labels
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table), config)
          .ValueOrDie();
  const metrics::MetricReport* dp =
      result.Find("demographic_parity").ValueOrDie();
  EXPECT_GT(dp->max_gap, 0.15);  // women hired far less

  // Merit is gender-blind by construction.
  config.prediction_column = "merit";
  audit::AuditResult merit_result =
      audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table), config)
          .ValueOrDie();
  EXPECT_LT(merit_result.Find("demographic_parity").ValueOrDie()->max_gap,
            0.05);
}

TEST(HiringScenarioTest, NoBiasKnobsNoBias) {
  Rng rng(7);
  HiringOptions fair;
  fair.n = 8000;
  fair.label_bias = 0.0;
  fair.proxy_strength = 0.0;
  ScenarioData scenario = MakeHiringScenario(fair, &rng).ValueOrDie();
  audit::AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "hired";
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table), config)
          .ValueOrDie();
  EXPECT_LT(result.Find("demographic_parity").ValueOrDie()->max_gap, 0.04);
}

TEST(HiringScenarioTest, ProxyStrengthControlsUniversityAssociation) {
  Rng rng(9);
  HiringOptions strong;
  strong.n = 6000;
  strong.proxy_strength = 2.0;
  ScenarioData with_proxy = MakeHiringScenario(strong, &rng).ValueOrDie();
  auto findings = audit::DetectProxies(with_proxy.table, "gender",
                                       {"university", "experience"})
                      .ValueOrDie();
  EXPECT_EQ(findings[0].feature, "university");
  EXPECT_TRUE(findings[0].flagged);

  HiringOptions none;
  none.n = 6000;
  none.proxy_strength = 0.0;
  ScenarioData without_proxy = MakeHiringScenario(none, &rng).ValueOrDie();
  auto clean = audit::DetectProxies(without_proxy.table, "gender",
                                    {"university", "experience"})
                   .ValueOrDie();
  for (const auto& finding : clean) EXPECT_FALSE(finding.flagged);
}

TEST(LendingScenarioTest, BiasKnobDrivesApprovalGap) {
  Rng rng(11);
  LendingOptions options;
  options.n = 8000;
  options.label_bias = 1.5;
  ScenarioData scenario = MakeLendingScenario(options, &rng).ValueOrDie();
  audit::AuditConfig config;
  config.protected_column = "group";
  config.prediction_column = "approved";
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table), config)
          .ValueOrDie();
  EXPECT_GT(result.Find("demographic_parity").ValueOrDie()->max_gap, 0.2);
}

TEST(PromotionScenarioTest, GerrymanderedBiasInvisibleToMarginals) {
  Rng rng(13);
  PromotionOptions options;
  options.n = 20000;
  options.subgroup_bias = 1.5;
  ScenarioData scenario = MakePromotionScenario(options, &rng).ValueOrDie();

  // Marginal audits on each protected attribute look fine.
  for (const char* attribute : {"gender", "race"}) {
    audit::AuditConfig config;
    config.protected_column = attribute;
    config.prediction_column = "promoted";
    audit::AuditResult result =
        audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table),
                            config)
            .ValueOrDie();
    EXPECT_LT(result.Find("demographic_parity").ValueOrDie()->max_gap,
              0.05)
        << attribute;
  }

  // The depth-2 subgroup audit exposes it.
  audit::SubgroupAuditOptions subgroup_options;
  subgroup_options.max_depth = 2;
  subgroup_options.tolerance = 0.05;
  audit::SubgroupAuditResult subgroups =
      audit::AuditSubgroups(scenario.table, {"gender", "race"}, "promoted",
                            subgroup_options)
          .ValueOrDie();
  EXPECT_TRUE(subgroups.any_violation);
  ASSERT_FALSE(subgroups.findings.empty());
  EXPECT_GT(subgroups.findings[0].gap, 0.1);
  EXPECT_EQ(subgroups.findings[0].subgroup.conditions.size(), 2u);
}

TEST(ScenarioValidationTest, BadOptionsRejected) {
  Rng rng(1);
  HiringOptions hiring;
  hiring.n = 2;
  EXPECT_FALSE(MakeHiringScenario(hiring, &rng).ok());
  hiring.n = 100;
  hiring.female_share = 1.0;
  EXPECT_FALSE(MakeHiringScenario(hiring, &rng).ok());
  LendingOptions lending;
  lending.minority_share = 0.0;
  EXPECT_FALSE(MakeLendingScenario(lending, &rng).ok());
  PromotionOptions promotion;
  promotion.caucasian_share = -0.1;
  EXPECT_FALSE(MakePromotionScenario(promotion, &rng).ok());
}

}  // namespace
}  // namespace fairlaw::sim
