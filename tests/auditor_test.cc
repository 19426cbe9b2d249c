#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "audit/auditor.h"
#include "audit/partials.h"
#include "audit/source.h"
#include "data/csv.h"
#include "stats/distance.h"
#include "stats/mergeable.h"
#include "stats/rng.h"

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

TEST(StrataKeysTest, CombinesColumns) {
  data::Table table = BiasedTable();
  data::ColumnKeys strata = StrataKeys(table, {"dept", "gender"}).ValueOrDie();
  EXPECT_EQ(strata.codes.size(), table.num_rows());
  // One key per tuple that occurs, "|"-joined, in first-seen row order.
  EXPECT_EQ(strata.keys, (std::vector<std::string>{
                             "eng|male", "sales|male", "eng|female",
                             "sales|female"}));
  EXPECT_EQ(strata.codes[0], 0u);    // male eng
  EXPECT_EQ(strata.codes[35], 1u);   // male sales
  EXPECT_EQ(strata.codes[60], 2u);   // female eng
  EXPECT_EQ(strata.codes[119], 3u);  // female sales
  Result<data::ColumnKeys> none = StrataKeys(table, {});
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().message(), "StrataKeys: no strata columns");
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

// Scored rows as CSV text whose scores are multiples of 1/8, so the
// streamed and the in-memory reader parse the same doubles. Group "b"
// first appears in row 9, so a fold that took the streamed chunks'
// score series out of chunk order would list "b" before "a".
std::string ScoredCsvText() {
  static constexpr const char* kScores[] = {
      "0", "0.125", "0.25", "0.375", "0.5", "0.625", "0.75", "0.875"};
  std::string csv = "gender,pred,label,score\n";
  for (int row = 0; row < 120; ++row) {
    const bool b = row >= 9 && row % 2 == 1;
    const int step = b ? (row / 2) % 6 : 2 + (row * 5) % 6;
    const int pred = step >= 4 ? 1 : 0;
    const int label = row % 3 == 0 ? 1 - pred : pred;
    csv += std::string(b ? "b" : "a") + "," + std::to_string(pred) + "," +
           std::to_string(label) + "," + kScores[step] + "\n";
  }
  return csv;
}

TEST(ScoreDistributionTest, ThreadCountDoesNotChangeReport) {
  const std::string text = ScoredCsvText();
  const std::string path = "auditor_test_scored.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
  }
  AuditConfig config = ScoreDistConfig();
  const std::string reference =
      Auditor::Run(AuditSource::FromTable(
                       data::ReadCsvString(text).ValueOrDie()),
                   config)
          .ValueOrDie()
          .Render();
  // 120 rows in 5-row chunks: 24 chunks, so 4 workers hold several
  // chunks in flight and finish them out of order.
  config.chunk_rows = 5;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    config.num_threads = threads;
    EXPECT_EQ(Auditor::Run(AuditSource::FromCsv(path), config)
                  .ValueOrDie()
                  .Render(),
              reference)
        << threads << " threads";
  }
  std::remove(path.c_str());
}

/// Sort-everything reference for the score-distribution audit: sorts
/// all the scores, and each group's (first-seen order), and measures
/// each group against the materialized multiset difference with the
/// span kernels.
Result<ScoreDistributionReport> ScoreDistributionOracle(
    const data::Table& table, const AuditConfig& config) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* group_column,
                           table.GetColumn(config.protected_column));
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* score_column,
                           table.GetColumn(config.score_column));
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> scores,
                           score_column->ToDoubles());
  for (double score : scores) {
    if (!std::isfinite(score)) {
      return Status::Invalid("score distribution audit: non-finite score");
    }
  }
  stats::FirstSeenMap<std::vector<double>> by_group;
  for (size_t row = 0; row < scores.size(); ++row) {
    by_group[group_column->ValueToString(row)].push_back(scores[row]);
  }
  std::vector<double> all_sorted = scores;
  std::sort(all_sorted.begin(), all_sorted.end());
  const bool constant =
      !all_sorted.empty() && all_sorted.front() == all_sorted.back();
  ScoreDistributionReport report;
  report.tolerance = config.score_distribution_tolerance;
  for (size_t g = 0; g < by_group.num_keys(); ++g) {
    std::vector<double> group = by_group.slot(g);
    std::sort(group.begin(), group.end());
    std::vector<double> rest;
    std::set_difference(all_sorted.begin(), all_sorted.end(), group.begin(),
                        group.end(), std::back_inserter(rest));
    GroupScoreDistance distance;
    distance.group = by_group.keys()[g];
    distance.count = group.size();
    if (!rest.empty() && !group.empty() && !constant) {
      FAIRLAW_ASSIGN_OR_RETURN(distance.wasserstein1,
                               stats::Wasserstein1Presorted(group, rest));
      FAIRLAW_ASSIGN_OR_RETURN(distance.ks,
                               stats::KolmogorovSmirnovPresorted(group, rest));
    }
    report.max_wasserstein1 =
        std::max(report.max_wasserstein1, distance.wasserstein1);
    report.max_ks = std::max(report.max_ks, distance.ks);
    report.groups.push_back(distance);
  }
  report.satisfied = report.max_ks <= report.tolerance;
  return report;
}

/// `rows` scored rows as CSV text: group i of `groups` takes its score
/// tokens from `tokens` by `pick(rng, group)`. Scores are written as
/// exact decimal tokens, so the table and the stream parse equal doubles.
template <typename Pick>
std::string ScoreDistCsv(size_t rows, size_t groups, Pick pick) {
  stats::Rng rng(53);
  std::string csv = "gender,pred,label,score\n";
  for (size_t row = 0; row < rows; ++row) {
    const size_t g = row < 4 * groups ? row % groups : rng.UniformInt(groups);
    csv += std::string(1, static_cast<char>('a' + g)) + "," +
           std::to_string(row % 2) + "," + std::to_string((row / 2) % 2) +
           "," + pick(rng, g) + "\n";
  }
  return csv;
}

/// Audits `csv` with the drift audit on, as a contiguous table and as
/// 4999-row streamed chunks, at one and at four threads; each result is
/// labelled with its path.
std::vector<std::pair<std::string, Result<AuditResult>>> AuditScoreDistPaths(
    const std::string& csv, const std::string& label) {
  const data::Table table = data::ReadCsvString(csv).ValueOrDie();
  const std::string path = "auditor_test_score_dist.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << csv;
    EXPECT_TRUE(out.good());
  }
  std::vector<std::pair<std::string, Result<AuditResult>>> results;
  AuditConfig config = ScoreDistConfig();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (bool chunked : {false, true}) {
      config.num_threads = threads;
      config.chunk_rows = chunked ? 4999 : AuditConfig{}.chunk_rows;
      results.emplace_back(
          label + " threads=" + std::to_string(threads) +
              (chunked ? " chunked" : " contiguous"),
          chunked ? Auditor::Run(AuditSource::FromCsv(path), config)
                  : Auditor::Run(AuditSource::FromTable(table), config));
    }
  }
  std::remove(path.c_str());
  return results;
}

/// The drift report of `csv` on every path of AuditScoreDistPaths equals
/// the oracle's (doubles compared with ==, since the order of equal
/// zeros, and so the sign of a zero, is unspecified in either sort), and
/// all four reports render identically.
void ExpectScoreDistMatchesOracle(const std::string& csv,
                                  const std::string& label) {
  const ScoreDistributionReport want =
      ScoreDistributionOracle(data::ReadCsvString(csv).ValueOrDie(),
                              ScoreDistConfig())
          .ValueOrDie();
  std::vector<std::string> renders;
  for (const auto& [where, got] : AuditScoreDistPaths(csv, label)) {
    ASSERT_TRUE(got.ok()) << where << ": " << got.status().message();
    ASSERT_TRUE(got->score_distribution.has_value()) << where;
    const ScoreDistributionReport& report = *got->score_distribution;
    ASSERT_EQ(report.groups.size(), want.groups.size()) << where;
    for (size_t g = 0; g < report.groups.size(); ++g) {
      EXPECT_EQ(report.groups[g].group, want.groups[g].group) << where;
      EXPECT_EQ(report.groups[g].count, want.groups[g].count) << where;
      EXPECT_EQ(report.groups[g].wasserstein1, want.groups[g].wasserstein1)
          << where << " group " << g;
      EXPECT_EQ(report.groups[g].ks, want.groups[g].ks)
          << where << " group " << g;
    }
    EXPECT_EQ(report.max_wasserstein1, want.max_wasserstein1) << where;
    EXPECT_EQ(report.max_ks, want.max_ks) << where;
    EXPECT_EQ(report.satisfied, want.satisfied) << where;
    renders.push_back(got->Render());
  }
  for (const std::string& render : renders) {
    EXPECT_EQ(render, renders.front()) << label;
  }
}

TEST(ScoreDistributionTest, PooledOrderMatchesSortEverythingOracle) {
  // More rows than two 16384-row chunks, so four threads get a pool.
  constexpr size_t kRows = 33000;
  static constexpr const char* kEighths[] = {
      "0", "0.125", "0.25", "0.375", "0.5", "0.625", "0.75", "0.875", "1"};
  auto ties = [](stats::Rng& rng, size_t g) {
    return std::string(kEighths[rng.UniformInt(g == 1 ? 9 : 5 + g)]);
  };
  ExpectScoreDistMatchesOracle(ScoreDistCsv(kRows, 3, ties), "ties");
  ExpectScoreDistMatchesOracle(
      ScoreDistCsv(kRows, 4,
                   [](stats::Rng& rng, size_t g) {
                     static constexpr const char* kSigned[] = {
                         "-0.0", "0.0", "0.5", "0.25", "1"};
                     return std::string(kSigned[rng.UniformInt(g + 2)]);
                   }),
      "signed zeros");
  // The metrics reject a one-group table before the drift audit runs,
  // so the smallest merge is one group against a four-row one.
  std::string one_group = ScoreDistCsv(kRows, 1, ties);
  size_t line = 0;
  for (int row = 0; row < 4; ++row) {
    line = one_group.find('\n', line) + 1;
    one_group[line] = 'b';
  }
  ExpectScoreDistMatchesOracle(one_group, "one group and four rows");
  ExpectScoreDistMatchesOracle(
      ScoreDistCsv(kRows, 3,
                   [](stats::Rng&, size_t) { return std::string("0.25"); }),
      "constant");
  // The last row's score becomes inf. Calibration reads the scores
  // before the drift audit and rejects it, with one text on every path.
  std::string non_finite = ScoreDistCsv(kRows, 3, ties);
  const size_t score_at = non_finite.rfind(',') + 1;
  non_finite.replace(score_at, non_finite.size() - 1 - score_at, "inf");
  for (const auto& [where, got] :
       AuditScoreDistPaths(non_finite, "non-finite")) {
    ASSERT_FALSE(got.ok()) << where;
    EXPECT_EQ(got.status().message(), "calibration: scores must lie in [0,1]")
        << where;
  }
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
