#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "audit/auditor.h"
#include "audit/source.h"
#include "data/csv.h"

namespace fairlaw::audit {
namespace {

data::Table BiasedTable() {
  // Male selection rate 0.75, female 0.25; labels mirror predictions for
  // half the rows so label metrics are well defined.
  std::string csv = "gender,dept,pred,label\n";
  auto add = [&csv](const std::string& g, const std::string& d, int p,
                    int y, int count) {
    for (int i = 0; i < count; ++i) {
      csv += g + "," + d + "," + std::to_string(p) + "," +
             std::to_string(y) + "\n";
    }
  };
  add("male", "eng", 1, 1, 30);
  add("male", "eng", 0, 1, 5);
  add("male", "sales", 1, 0, 15);
  add("male", "sales", 0, 0, 10);
  add("female", "eng", 1, 1, 10);
  add("female", "eng", 0, 1, 20);
  add("female", "sales", 1, 0, 5);
  add("female", "sales", 0, 0, 25);
  return data::ReadCsvString(csv).ValueOrDie();
}

TEST(MetricInputFromTableTest, ExtractsColumns) {
  data::Table table = BiasedTable();
  metrics::MetricInput input =
      MetricInputFromTable(table, "gender", "pred", "label").ValueOrDie();
  EXPECT_EQ(input.size(), table.num_rows());
  EXPECT_EQ(input.labels.size(), table.num_rows());
  // Label column optional.
  metrics::MetricInput no_labels =
      MetricInputFromTable(table, "gender", "pred", "").ValueOrDie();
  EXPECT_TRUE(no_labels.labels.empty());
  // Non-binary prediction column rejected.
  EXPECT_FALSE(MetricInputFromTable(table, "gender", "dept", "").ok());
  EXPECT_FALSE(MetricInputFromTable(table, "missing", "pred", "").ok());
}

TEST(StrataFromTableTest, CombinesColumns) {
  data::Table table = BiasedTable();
  std::vector<std::string> strata =
      StrataFromTable(table, {"dept", "gender"}).ValueOrDie();
  EXPECT_EQ(strata.size(), table.num_rows());
  EXPECT_EQ(strata[0], "eng|male");
  EXPECT_FALSE(StrataFromTable(table, {}).ok());
}

TEST(RunAuditTest, FullSuiteOnBiasedData) {
  data::Table table = BiasedTable();
  AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "pred";
  config.label_column = "label";
  config.strata_columns = {"dept"};
  config.tolerance = 0.05;
  AuditResult result =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  EXPECT_FALSE(result.all_satisfied);
  // All seven group metrics plus two conditional reports.
  EXPECT_EQ(result.reports.size(), 7u);
  EXPECT_EQ(result.conditional_reports.size(), 2u);

  const metrics::MetricReport* dp =
      result.Find("demographic_parity").ValueOrDie();
  EXPECT_NEAR(dp->max_gap, 0.5, 1e-12);  // 0.75 vs 0.25
  EXPECT_FALSE(dp->satisfied);
  const metrics::MetricReport* di =
      result.Find("disparate_impact_ratio").ValueOrDie();
  EXPECT_NEAR(di->min_ratio, 1.0 / 3.0, 1e-12);
  EXPECT_FALSE(result.Find("nonexistent").ok());
}

TEST(RunAuditTest, LabelMetricsSkippedWithoutLabels) {
  data::Table table = BiasedTable();
  AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "pred";
  AuditResult result =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  EXPECT_EQ(result.reports.size(), 3u);  // DP, DD, DI only
  EXPECT_TRUE(result.conditional_reports.empty());
}

TEST(RunAuditTest, FairDataPasses) {
  std::string csv = "g,pred\n";
  for (int i = 0; i < 50; ++i) csv += "a," + std::to_string(i % 2) + "\n";
  for (int i = 0; i < 50; ++i) csv += "b," + std::to_string(i % 2) + "\n";
  data::Table table = data::ReadCsvString(csv).ValueOrDie();
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "pred";
  AuditResult result =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  // DP/DI pass; demographic disparity fails at exactly 0.5 selection
  // (strict inequality) so the overall verdict reflects that nuance.
  EXPECT_TRUE(result.Find("demographic_parity").ValueOrDie()->satisfied);
  EXPECT_TRUE(
      result.Find("disparate_impact_ratio").ValueOrDie()->satisfied);
}

TEST(RunAuditTest, RenderContainsAllMetrics) {
  data::Table table = BiasedTable();
  AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "pred";
  config.label_column = "label";
  AuditResult result =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  std::string text = result.Render();
  EXPECT_NE(text.find("demographic_parity"), std::string::npos);
  EXPECT_NE(text.find("equalized_odds"), std::string::npos);
  EXPECT_NE(text.find("VIOLATIONS FOUND"), std::string::npos);
}

TEST(RunAuditTest, NullsInProtectedColumnRejected) {
  data::Table table =
      data::ReadCsvString("g,pred\na,1\n,0\nb,1\nb,0\n").ValueOrDie();
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "pred";
  EXPECT_FALSE(Auditor::Run(AuditSource::FromTable(table), config).ok());
}

TEST(RunAuditTest, HeaderOnlyCsvReportsEmptyInputOnBothPaths) {
  // Zero rows infer every column as string, so a type check on the
  // prediction column would mask the empty input.
  const std::string path = "auditor_test_header_only.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "g,p,y\n";
    ASSERT_TRUE(out.good());
  }
  const data::Table table = data::ReadCsvFile(path).ValueOrDie();
  ASSERT_EQ(table.num_rows(), 0u);
  // An existing column set reports the empty input; a missing one its
  // lookup failure, checked protected, prediction, label in that order.
  struct Case {
    const char* protected_column;
    const char* prediction_column;
    const char* label_column;
    const char* expected;
  };
  const char kEmpty[] = "invalid argument: MetricInput: empty input";
  const char kMissing[] = "not found: Schema: no field named 'q'";
  for (const Case& c : {Case{"g", "p", "y", kEmpty}, Case{"g", "p", "", kEmpty},
                        Case{"q", "p", "y", kMissing},
                        Case{"g", "q", "y", kMissing},
                        Case{"g", "p", "q", kMissing}}) {
    AuditConfig config;
    config.protected_column = c.protected_column;
    config.prediction_column = c.prediction_column;
    config.label_column = c.label_column;
    const std::string where = std::string(c.protected_column) + "," +
                              c.prediction_column + "," + c.label_column;
    EXPECT_EQ(
        Auditor::Run(AuditSource::FromCsv(path), config).status().ToString(),
        c.expected)
        << "FromCsv " << where;
    EXPECT_EQ(Auditor::Run(AuditSource::FromTable(table), config)
                  .status()
                  .ToString(),
              c.expected)
        << "FromTable " << where;
  }
  std::remove(path.c_str());
}

TEST(MetricInputMultiTest, CombinesProtectedColumns) {
  data::Table table = BiasedTable();
  metrics::MetricInput input =
      MetricInputFromTableMulti(table, {"gender", "dept"}, "pred", "label")
          .ValueOrDie();
  EXPECT_EQ(input.size(), table.num_rows());
  // Four intersectional groups: male|eng, male|sales, female|eng,
  // female|sales.
  auto stats =
      metrics::ComputeGroupStats(input, /*with_labels=*/true).ValueOrDie();
  EXPECT_EQ(stats.size(), 4u);
  bool found = false;
  for (const metrics::GroupStats& gs : stats) {
    if (gs.group == "male|eng") {
      found = true;
      EXPECT_EQ(gs.count, 35);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(MetricInputFromTableMulti(table, {}, "pred", "").ok());
}

TEST(AuditConfigTest, ValidateAcceptsDefaults) {
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "pred";
  EXPECT_TRUE(config.Validate().ok());
}

TEST(AuditConfigTest, ValidateRejectsBadFields) {
  AuditConfig valid;
  valid.protected_column = "g";
  valid.prediction_column = "pred";

  AuditConfig config = valid;
  config.protected_column = "";
  EXPECT_FALSE(config.Validate().ok());

  config = valid;
  config.prediction_column = "";
  EXPECT_FALSE(config.Validate().ok());

  config = valid;
  config.strata_columns = {"dept", ""};
  EXPECT_FALSE(config.Validate().ok());

  config = valid;
  config.tolerance = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.tolerance = 1.5;
  EXPECT_FALSE(config.Validate().ok());

  config = valid;
  config.di_threshold = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.di_threshold = 1.2;
  EXPECT_FALSE(config.Validate().ok());

  config = valid;
  config.calibration_bins = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = valid;
  config.calibration_tolerance = -0.5;
  EXPECT_FALSE(config.Validate().ok());

  // Calibration needs both a score and a label column.
  config = valid;
  config.score_column = "score";
  config.label_column = "";
  EXPECT_FALSE(config.Validate().ok());

  config = valid;
  config.min_stratum_size = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(AuditConfigTest, RunAuditRejectsInvalidConfig) {
  data::Table table = BiasedTable();
  AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "pred";
  config.tolerance = 2.0;
  EXPECT_FALSE(Auditor::Run(AuditSource::FromTable(table), config).ok());
}

// Score table with a deliberate per-group score shift: male scores
// cluster high, female scores cluster low, so the distribution-drift
// audit has a real gap to find.
data::Table ScoredTable(bool shifted) {
  std::string csv = "gender,pred,label,score\n";
  auto add = [&csv](const std::string& g, int p, int y, double score,
                    int count) {
    for (int i = 0; i < count; ++i) {
      csv += g + "," + std::to_string(p) + "," + std::to_string(y) + "," +
             std::to_string(score) + "\n";
    }
  };
  const double offset = shifted ? 0.4 : 0.0;
  for (int step = 0; step < 10; ++step) {
    const double base = 0.05 * step;
    add("male", step >= 5 ? 1 : 0, step >= 5 ? 1 : 0, base + offset, 4);
    add("female", step >= 5 ? 1 : 0, step >= 5 ? 1 : 0, base, 4);
  }
  return data::ReadCsvString(csv).ValueOrDie();
}

AuditConfig ScoreDistConfig() {
  AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "pred";
  config.label_column = "label";
  config.score_column = "score";
  config.audit_score_distribution = true;
  return config;
}

TEST(ScoreDistributionTest, DriftDetectedAndReported) {
  data::Table table = ScoredTable(/*shifted=*/true);
  AuditConfig config = ScoreDistConfig();
  config.score_distribution_tolerance = 0.1;
  AuditResult result =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  ASSERT_TRUE(result.score_distribution.has_value());
  const ScoreDistributionReport& report = *result.score_distribution;
  ASSERT_EQ(report.groups.size(), 2u);
  EXPECT_EQ(report.groups[0].group, "male");
  EXPECT_EQ(report.groups[0].count, 40u);
  // Each group is compared against everyone else, so the two KS values
  // coincide and reflect the 0.4 shift.
  EXPECT_GT(report.max_ks, 0.1);
  EXPECT_GT(report.max_wasserstein1, 0.1);
  EXPECT_FALSE(report.satisfied);
  EXPECT_FALSE(result.all_satisfied);
  // The rendered report names the new section.
  EXPECT_NE(result.Render().find("score_distribution_drift"),
            std::string::npos);
}

TEST(ScoreDistributionTest, MatchedDistributionsSatisfied) {
  data::Table table = ScoredTable(/*shifted=*/false);
  AuditConfig config = ScoreDistConfig();
  config.score_distribution_tolerance = 0.05;
  AuditResult result =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  ASSERT_TRUE(result.score_distribution.has_value());
  EXPECT_TRUE(result.score_distribution->satisfied);
  EXPECT_NEAR(result.score_distribution->max_ks, 0.0, 1e-12);
  EXPECT_NEAR(result.score_distribution->max_wasserstein1, 0.0, 1e-12);
}

TEST(ScoreDistributionTest, ThreadCountDoesNotChangeReport) {
  data::Table table = ScoredTable(/*shifted=*/true);
  AuditConfig config = ScoreDistConfig();
  AuditResult serial =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  config.num_threads = 4;
  AuditResult parallel =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  EXPECT_EQ(serial.Render(), parallel.Render());
}

TEST(ScoreDistributionTest, OffByDefaultAndValidated) {
  data::Table table = ScoredTable(/*shifted=*/true);
  AuditConfig config = ScoreDistConfig();
  config.audit_score_distribution = false;
  AuditResult result =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  EXPECT_FALSE(result.score_distribution.has_value());

  // The drift audit needs a score column.
  config = ScoreDistConfig();
  config.score_column = "";
  config.label_column = "";
  EXPECT_FALSE(config.Validate().ok());

  config = ScoreDistConfig();
  config.score_distribution_tolerance = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.score_distribution_tolerance = -0.1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(AuditResultFindTest, AcceptsStringView) {
  data::Table table = BiasedTable();
  AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "pred";
  AuditResult result =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  const std::string_view name = "demographic_parity";
  EXPECT_TRUE(result.Find(name).ok());
  EXPECT_FALSE(result.Find("no_such_metric").ok());
}

}  // namespace
}  // namespace fairlaw::audit
