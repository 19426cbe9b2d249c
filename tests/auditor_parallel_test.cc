// Parallel audit path: a streamed CSV audited on several workers renders
// byte-identically to the one-chunk audit of the same rows as a table,
// and a table's score-distribution loop gives the same doubles on a pool.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "audit/auditor.h"
#include "audit/source.h"
#include "data/csv.h"
#include "data/table.h"

namespace fairlaw::audit {
namespace {

/// Rows that stream as eight 30-row chunks, so the morsel workers
/// actually interleave: 240 rows, two groups, labels, scores, and a
/// stratum.
std::string MakeCsv() {
  std::ostringstream csv;
  csv << "sex,pred,label,score,dept\n";
  for (int i = 0; i < 240; ++i) {
    const bool male = i % 2 == 0;
    const int pred = (i % 3 == 0) ? 1 : 0;
    const int label = (i % 5 == 0) ? 1 - pred : pred;
    const double score = (pred == 1) ? 0.55 + 0.3 * ((i % 7) / 7.0)
                                     : 0.10 + 0.3 * ((i % 7) / 7.0);
    csv << (male ? "male" : "female") << ',' << pred << ',' << label << ','
        << score << ',' << (i % 4 < 2 ? "eng" : "sales") << '\n';
  }
  return csv.str();
}

/// Writes `text` to `path`; the test removes it when done.
std::string WriteCsv(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

AuditConfig MakeConfig(size_t num_threads) {
  AuditConfig config;
  config.protected_column = "sex";
  config.prediction_column = "pred";
  config.label_column = "label";
  config.score_column = "score";
  config.strata_columns = {"dept"};
  config.num_threads = num_threads;
  config.chunk_rows = 30;
  return config;
}

TEST(AuditorParallelTest, RenderIsByteIdenticalAcrossThreadCounts) {
  const std::string text = MakeCsv();
  const std::string path = WriteCsv("auditor_parallel_render.csv", text);
  const data::Table table = data::ReadCsvString(text).ValueOrDie();
  const std::string reference =
      Auditor::Run(AuditSource::FromTable(table), MakeConfig(1))
          .ValueOrDie().Render();
  EXPECT_FALSE(reference.empty());
  for (const size_t threads : {1u, 2u, 8u, 0u}) {
    const std::string streamed =
        Auditor::Run(AuditSource::FromCsv(path), MakeConfig(threads))
            .ValueOrDie().Render();
    EXPECT_EQ(streamed, reference) << "threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST(AuditorParallelTest, ScoreDistributionIsIdenticalAcrossThreadCounts) {
  // Three kDefaultChunkRows chunks of rows, so 2 and 8 threads compare
  // the groups on a pool. Scores repeat within and across groups.
  std::ostringstream csv;
  csv << "group,pred,score\n";
  const int rows = 3 * static_cast<int>(data::kDefaultChunkRows);
  for (int i = 0; i < rows; ++i) {
    const int group = (i * 7) % 11 % 6;
    csv << 'g' << group << ',' << i % 2 << ','
        << ((i * 31) % 97 + 5 * group) / 200.0 << '\n';
  }
  const data::Table table = data::ReadCsvString(csv.str()).ValueOrDie();
  AuditConfig config;
  config.protected_column = "group";
  config.prediction_column = "pred";
  config.score_column = "score";
  config.label_column = "pred";
  config.audit_score_distribution = true;
  const AuditResult reference =
      Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
  ASSERT_TRUE(reference.score_distribution.has_value());
  ASSERT_EQ(reference.score_distribution->groups.size(), 6u);
  EXPECT_GT(reference.score_distribution->max_ks, 0.0);
  for (const size_t threads : {2u, 8u}) {
    config.num_threads = threads;
    const AuditResult result =
        Auditor::Run(AuditSource::FromTable(table), config).ValueOrDie();
    EXPECT_EQ(result.Render(), reference.Render()) << "threads=" << threads;
    const ScoreDistributionReport& got = *result.score_distribution;
    const ScoreDistributionReport& want = *reference.score_distribution;
    ASSERT_EQ(got.groups.size(), want.groups.size());
    for (size_t g = 0; g < want.groups.size(); ++g) {
      EXPECT_EQ(got.groups[g].group, want.groups[g].group);
      EXPECT_EQ(got.groups[g].count, want.groups[g].count);
      EXPECT_EQ(got.groups[g].wasserstein1, want.groups[g].wasserstein1);
      EXPECT_EQ(got.groups[g].ks, want.groups[g].ks);
    }
  }
}

TEST(AuditorParallelTest, ReportOrderMatchesSerialRun) {
  const std::string text = MakeCsv();
  const std::string path = WriteCsv("auditor_parallel_order.csv", text);
  const data::Table table = data::ReadCsvString(text).ValueOrDie();
  const AuditResult serial =
      Auditor::Run(AuditSource::FromTable(table), MakeConfig(1)).ValueOrDie();
  const AuditResult parallel =
      Auditor::Run(AuditSource::FromCsv(path), MakeConfig(8)).ValueOrDie();
  ASSERT_EQ(parallel.reports.size(), serial.reports.size());
  for (size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(parallel.reports[i].metric_name, serial.reports[i].metric_name)
        << i;
  }
  ASSERT_EQ(parallel.conditional_reports.size(),
            serial.conditional_reports.size());
  EXPECT_EQ(parallel.all_satisfied, serial.all_satisfied);
  EXPECT_EQ(parallel.calibration.has_value(), serial.calibration.has_value());
  std::remove(path.c_str());
}

TEST(AuditorParallelTest, ErrorsMatchSerialRun) {
  // A metric failure (single-group input breaks the gap metrics) must
  // surface the same error whether evaluated serially or in parallel.
  const std::string text =
      "sex,pred\n"
      "male,1\nmale,0\nmale,1\nmale,0\n";
  const std::string path = WriteCsv("auditor_parallel_errors.csv", text);
  const data::Table table = data::ReadCsvString(text).ValueOrDie();
  AuditConfig config;
  config.protected_column = "sex";
  config.prediction_column = "pred";
  const auto serial = Auditor::Run(AuditSource::FromTable(table), config);
  config.num_threads = 8;
  config.chunk_rows = 1;
  const auto parallel = Auditor::Run(AuditSource::FromCsv(path), config);
  ASSERT_EQ(serial.ok(), parallel.ok());
  if (!serial.ok()) {
    EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
  }
  std::remove(path.c_str());
}

TEST(AuditorParallelTest, FirstFailingRowInTableOrderWins) {
  // Group F has no actual positives (equal_opportunity and
  // equalized_odds fail) and group M no positive predictions
  // (predictive_parity fails); demographic parity and disparate impact
  // pass. The error is the first failing row's, in table order.
  const std::string text =
      "sex,pred,label\n"
      "F,1,0\nF,0,0\nF,1,0\nF,0,0\n"
      "M,0,1\nM,0,0\nM,0,1\nM,0,0\n";
  const std::string path = WriteCsv("auditor_parallel_first_row.csv", text);
  const data::Table table = data::ReadCsvString(text).ValueOrDie();
  AuditConfig config;
  config.protected_column = "sex";
  config.prediction_column = "pred";
  config.label_column = "label";
  const std::string expected =
      "invalid argument: equal_opportunity: group 'F' has no actual "
      "positives; TPR undefined";
  EXPECT_EQ(
      Auditor::Run(AuditSource::FromTable(table), config).status().ToString(),
      expected);
  config.chunk_rows = 3;
  for (const size_t threads : {1u, 8u}) {
    config.num_threads = threads;
    EXPECT_EQ(
        Auditor::Run(AuditSource::FromCsv(path), config).status().ToString(),
        expected)
        << "threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST(AuditorParallelTest, ThreadCountZeroUsesHardwareConcurrency) {
  const std::string path =
      WriteCsv("auditor_parallel_hardware.csv", MakeCsv());
  EXPECT_TRUE(Auditor::Run(AuditSource::FromCsv(path), MakeConfig(0)).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fairlaw::audit
