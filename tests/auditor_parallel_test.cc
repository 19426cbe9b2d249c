// Parallel audit path: byte-identical output for every thread count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "audit/auditor.h"
#include "audit/source.h"
#include "data/csv.h"
#include "data/table.h"

namespace fairlaw::audit {
namespace {

/// A table that splits into eight 30-row chunks, so the morsel workers
/// actually interleave: 240 rows, two groups, labels, scores, and a
/// stratum.
data::Table MakeTable() {
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
  return data::ReadCsvString(csv.str()).ValueOrDie();
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
  const data::Table table = MakeTable();
  const std::string serial =
      Auditor::Run(AuditSource::FromTable(table), MakeConfig(1))
          .ValueOrDie().Render();
  EXPECT_FALSE(serial.empty());
  for (const size_t threads : {2u, 8u, 0u}) {
    const std::string parallel =
        Auditor::Run(AuditSource::FromTable(table), MakeConfig(threads))
            .ValueOrDie().Render();
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(AuditorParallelTest, ReportOrderMatchesSerialRun) {
  const data::Table table = MakeTable();
  const AuditResult serial =
      Auditor::Run(AuditSource::FromTable(table), MakeConfig(1)).ValueOrDie();
  const AuditResult parallel =
      Auditor::Run(AuditSource::FromTable(table), MakeConfig(8)).ValueOrDie();
  ASSERT_EQ(parallel.reports.size(), serial.reports.size());
  for (size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(parallel.reports[i].metric_name, serial.reports[i].metric_name)
        << i;
  }
  ASSERT_EQ(parallel.conditional_reports.size(),
            serial.conditional_reports.size());
  EXPECT_EQ(parallel.all_satisfied, serial.all_satisfied);
  EXPECT_EQ(parallel.calibration.has_value(), serial.calibration.has_value());
}

TEST(AuditorParallelTest, ErrorsMatchSerialRun) {
  // A metric failure (single-group input breaks the gap metrics) must
  // surface the same error whether evaluated serially or in parallel.
  data::Table table = data::ReadCsvString(
                          "sex,pred\n"
                          "male,1\nmale,0\nmale,1\nmale,0\n")
                          .ValueOrDie();
  AuditConfig config;
  config.protected_column = "sex";
  config.prediction_column = "pred";

  config.num_threads = 1;
  const auto serial = Auditor::Run(AuditSource::FromTable(table), config);
  config.num_threads = 8;
  const auto parallel = Auditor::Run(AuditSource::FromTable(table), config);
  ASSERT_EQ(serial.ok(), parallel.ok());
  if (!serial.ok()) {
    EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
  }
}

TEST(AuditorParallelTest, FirstFailingRowInTableOrderWins) {
  // Group F has no actual positives (equal_opportunity and
  // equalized_odds fail) and group M no positive predictions
  // (predictive_parity fails); demographic parity and disparate impact
  // pass. The error is the first failing row's, in table order.
  const data::Table table = data::ReadCsvString(
                                "sex,pred,label\n"
                                "F,1,0\nF,0,0\nF,1,0\nF,0,0\n"
                                "M,0,1\nM,0,0\nM,0,1\nM,0,0\n")
                                .ValueOrDie();
  AuditConfig config;
  config.protected_column = "sex";
  config.prediction_column = "pred";
  config.label_column = "label";
  for (const size_t threads : {1u, 8u}) {
    config.num_threads = threads;
    EXPECT_EQ(Auditor::Run(AuditSource::FromTable(table), config)
                  .status()
                  .ToString(),
              "invalid argument: equal_opportunity: group 'F' has no actual "
              "positives; TPR undefined")
        << "threads=" << threads;
  }
}

TEST(AuditorParallelTest, ThreadCountZeroUsesHardwareConcurrency) {
  const data::Table table = MakeTable();
  EXPECT_TRUE(Auditor::Run(AuditSource::FromTable(table), MakeConfig(0)).ok());
}

}  // namespace
}  // namespace fairlaw::audit
