// Parameterized sweeps over scenario bias knobs and robustness of the
// CSV reader to adversarial input: properties that must hold for any
// knob setting / any input.
#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/source.h"
#include "data/csv.h"
#include "simulation/scenarios.h"
#include "stats/rng.h"

namespace fairlaw {
namespace {

using fairlaw::stats::Rng;

double HistoricalDpGap(double label_bias, uint64_t seed) {
  Rng rng(seed);
  sim::HiringOptions options;
  options.n = 8000;
  options.label_bias = label_bias;
  sim::ScenarioData scenario =
      sim::MakeHiringScenario(options, &rng).ValueOrDie();
  audit::AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "hired";
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table), config)
          .ValueOrDie();
  return result.Find("demographic_parity").ValueOrDie()->max_gap;
}

class ScenarioSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioSweepTest, DpGapMonotoneInLabelBias) {
  uint64_t seed = GetParam();
  double previous = -1.0;
  for (double bias : {0.0, 0.75, 1.5, 2.25}) {
    double gap = HistoricalDpGap(bias, seed);
    EXPECT_GT(gap, previous - 0.03)  // monotone up to sampling noise
        << "bias " << bias;
    previous = gap;
  }
  // Ends clearly above where it started.
  EXPECT_GT(HistoricalDpGap(2.25, seed), HistoricalDpGap(0.0, seed) + 0.1);
}

TEST_P(ScenarioSweepTest, MeritStaysBlindAcrossAllKnobs) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  sim::HiringOptions options;
  options.n = 8000;
  options.label_bias = 2.0;
  options.proxy_strength = 2.0;  // crank everything
  sim::ScenarioData scenario =
      sim::MakeHiringScenario(options, &rng).ValueOrDie();
  audit::AuditConfig config;
  config.protected_column = "gender";
  config.prediction_column = "merit";
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table), config)
          .ValueOrDie();
  EXPECT_LT(result.Find("demographic_parity").ValueOrDie()->max_gap, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioSweepTest,
                         ::testing::Values(101, 202, 303));

// --- CSV robustness: arbitrary byte soup must never crash the reader;
// it either parses or returns a Status. ---

class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, RandomInputNeverCrashes) {
  Rng rng(GetParam());
  const char alphabet[] = "abc,\"\n\r0129.|;- \t";
  for (int trial = 0; trial < 200; ++trial) {
    size_t length = rng.UniformInt(120);
    std::string text;
    for (size_t i = 0; i < length; ++i) {
      text += alphabet[rng.UniformInt(sizeof(alphabet) - 1)];
    }
    Result<data::Table> table = data::ReadCsvString(text);
    if (table.ok()) {
      // Whatever parsed must round-trip through the writer.
      Result<std::string> rewritten = data::WriteCsvString(*table);
      EXPECT_TRUE(rewritten.ok());
    }
  }
}

TEST_P(CsvFuzzTest, ParsedTablesAreStructurallySound) {
  Rng rng(GetParam() + 7777);
  for (int trial = 0; trial < 100; ++trial) {
    // Structured-ish random CSV: consistent column count, random cells.
    size_t cols = 1 + rng.UniformInt(4);
    size_t rows = 1 + rng.UniformInt(6);
    std::string text;
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text += ',';
      text += "col" + std::to_string(c);
    }
    text += '\n';
    size_t expected_rows = 0;
    for (size_t r = 0; r < rows; ++r) {
      bool any_content = false;
      for (size_t c = 0; c < cols; ++c) {
        if (c > 0) {
          text += ',';
          any_content = true;  // the delimiter marks the line non-blank
        }
        switch (rng.UniformInt(4)) {
          case 0:
            text += std::to_string(rng.UniformInt(100));
            any_content = true;
            break;
          case 1:
            text += "1.5";
            any_content = true;
            break;
          case 2:
            text += "text";
            any_content = true;
            break;
          case 3:
            break;  // null cell
        }
      }
      text += '\n';
      // A line with no content at all (possible only for single-column
      // tables) is skipped as a blank line by the reader.
      if (any_content) ++expected_rows;
    }
    if (expected_rows == 0) {
      EXPECT_FALSE(data::ReadCsvString(text).ok() &&
                   data::ReadCsvString(text)->num_rows() > 0);
      continue;
    }
    data::Table table = data::ReadCsvString(text).ValueOrDie();
    EXPECT_EQ(table.num_columns(), cols);
    EXPECT_EQ(table.num_rows(), expected_rows);
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(table.column(c).size(), expected_rows);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace fairlaw
