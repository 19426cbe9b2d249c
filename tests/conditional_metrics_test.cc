// §III-B and §III-F worked examples plus conditional-metric edge cases.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "audit/report_io.h"
#include "audit/source.h"
#include "base/string_util.h"
#include "data/csv.h"
#include "metrics/conditional_metrics.h"
#include "metrics/group_metrics.h"
#include "stats/rng.h"

namespace fairlaw::metrics {
namespace {

void AddRows(MetricInput* input, std::vector<std::string>* strata,
             const std::string& group, const std::string& stratum,
             int prediction, int count) {
  for (int i = 0; i < count; ++i) {
    input->groups.push_back(group);
    input->predictions.push_back(prediction);
    strata->push_back(stratum);
  }
}

// ---- §III-B conditional statistical parity: 10 F / 20 M; 10 young
// males (5 hired, 50%), 6 young females; fair iff 3 young females hired.
// Old applicants: keep their rates equal so only the young stratum
// drives the verdict.

struct CspExample {
  MetricInput input;
  std::vector<std::string> strata;
};

CspExample MakeCspExample(int young_females_hired) {
  CspExample example;
  // Young males: 10, 5 hired.
  AddRows(&example.input, &example.strata, "male", "young", 1, 5);
  AddRows(&example.input, &example.strata, "male", "young", 0, 5);
  // Young females: 6.
  AddRows(&example.input, &example.strata, "female", "young", 1,
          young_females_hired);
  AddRows(&example.input, &example.strata, "female", "young", 0,
          6 - young_females_hired);
  // Old males: 10, 4 hired (40%). Old females: 4 applicants; 40% would
  // be 1.6, use 2/5... keep old rates equal: hire 2 of 4 females? 2/4=0.5
  // != 0.4. Use 10 old males with 4 hired and 5 old females with 2 hired
  // (both 40%).
  AddRows(&example.input, &example.strata, "male", "old", 1, 4);
  AddRows(&example.input, &example.strata, "male", "old", 0, 6);
  AddRows(&example.input, &example.strata, "female", "old", 1, 2);
  AddRows(&example.input, &example.strata, "female", "old", 0, 3);
  return example;
}

TEST(PaperExampleB, ThreeYoungFemalesHiredIsFair) {
  CspExample example = MakeCspExample(3);
  ConditionalReport report =
      EvaluateConditional(MetricId::kDemographicParity, example.input,
                          example.strata, 0.0, 1)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_NEAR(report.max_gap, 0.0, 1e-12);
  ASSERT_EQ(report.strata.size(), 2u);
}

TEST(PaperExampleB, FewerYoungFemalesHiredIsUnfair) {
  CspExample example = MakeCspExample(1);
  ConditionalReport report =
      EvaluateConditional(MetricId::kDemographicParity, example.input,
                          example.strata, 0.0, 1)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  // Young stratum gap: 0.5 - 1/6.
  EXPECT_NEAR(report.max_gap, 0.5 - 1.0 / 6.0, 1e-12);
  // The old stratum individually is fine.
  for (const StratumReport& sr : report.strata) {
    if (sr.stratum == "old") {
      EXPECT_TRUE(sr.report.satisfied);
    }
    if (sr.stratum == "young") {
      EXPECT_FALSE(sr.report.satisfied);
    }
  }
}

TEST(PaperExampleB, MarginalParityCanHideStratumDisparity) {
  // Simpson-style: each stratum is biased but the marginal rates are
  // equal — conditioning is what reveals it (the reason §III-B exists).
  MetricInput input;
  std::vector<std::string> strata;
  // Stratum s1: males 8/10 hired, females 6/10 hired (male favored).
  AddRows(&input, &strata, "male", "s1", 1, 8);
  AddRows(&input, &strata, "male", "s1", 0, 2);
  AddRows(&input, &strata, "female", "s1", 1, 6);
  AddRows(&input, &strata, "female", "s1", 0, 4);
  // Stratum s2: males 2/10, females 4/10 (female favored) -> marginals
  // both 50%.
  AddRows(&input, &strata, "male", "s2", 1, 2);
  AddRows(&input, &strata, "male", "s2", 0, 8);
  AddRows(&input, &strata, "female", "s2", 1, 4);
  AddRows(&input, &strata, "female", "s2", 0, 6);

  MetricReport marginal =
      Evaluate(MetricId::kDemographicParity, input, 0.0).ValueOrDie();
  EXPECT_TRUE(marginal.satisfied);  // marginals hide it
  ConditionalReport conditional =
      EvaluateConditional(MetricId::kDemographicParity, input, strata, 0.0, 1)
          .ValueOrDie();
  EXPECT_FALSE(conditional.satisfied);
  EXPECT_NEAR(conditional.max_gap, 0.2, 1e-12);
}

// ---- §III-F conditional demographic disparity: 100 females over 5
// jobs; 40 hired overall (unfair under plain DD) but jobs 1-4 hire all
// and job 5 rejects all: fair conditioned on jobs 1-4, unfair on job 5.

TEST(PaperExampleF, PerJobVerdictsMatchPaper) {
  MetricInput input;
  std::vector<std::string> strata;
  for (int job = 1; job <= 4; ++job) {
    AddRows(&input, &strata, "female", "job" + std::to_string(job), 1, 10);
  }
  AddRows(&input, &strata, "female", "job5", 0, 60);

  // Plain demographic disparity: 40 hires vs 60 rejections -> unfair.
  EXPECT_FALSE(Evaluate(MetricId::kDemographicDisparity, input, 0.0)
                   .ValueOrDie().satisfied);

  ConditionalReport report =
      EvaluateConditional(MetricId::kDemographicDisparity, input, strata, 0.0,
                          /*min_stratum_size=*/1)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);  // job5 still fails
  ASSERT_EQ(report.strata.size(), 5u);
  for (const StratumReport& sr : report.strata) {
    if (sr.stratum == "job5") {
      EXPECT_FALSE(sr.report.satisfied);
    } else {
      EXPECT_TRUE(sr.report.satisfied);
    }
  }
}

// ---- structural behavior ----

TEST(ConditionalMetricsTest, SmallStrataAreSkippedNotFailed) {
  MetricInput input;
  std::vector<std::string> strata;
  AddRows(&input, &strata, "male", "big", 1, 30);
  AddRows(&input, &strata, "female", "big", 1, 30);
  // Tiny biased stratum below min size.
  AddRows(&input, &strata, "male", "tiny", 1, 2);
  AddRows(&input, &strata, "female", "tiny", 0, 2);
  ConditionalReport report =
      EvaluateConditional(MetricId::kDemographicParity, input, strata, 0.0,
                          /*min_stratum_size=*/10)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.strata.size(), 1u);
  EXPECT_NE(report.detail.find("tiny"), std::string::npos);
}

TEST(ConditionalMetricsTest, AllStrataSkippedIsAnError) {
  MetricInput input;
  std::vector<std::string> strata;
  AddRows(&input, &strata, "male", "s", 1, 2);
  AddRows(&input, &strata, "female", "s", 1, 2);
  EXPECT_FALSE(EvaluateConditional(MetricId::kDemographicParity, input, strata,
                                   0.0, /*min_stratum_size=*/100)
                   .ok());
}

TEST(ConditionalMetricsTest, StrataLengthMismatchRejected) {
  MetricInput input;
  std::vector<std::string> strata;
  AddRows(&input, &strata, "male", "s", 1, 4);
  strata.pop_back();
  EXPECT_FALSE(EvaluateConditional(MetricId::kDemographicParity, input, strata,
                                   0.0, 1)
                   .ok());
  EXPECT_FALSE(EvaluateConditional(MetricId::kDemographicDisparity, input,
                                   strata, 0.0, 1)
                   .ok());
}

TEST(ConditionalMetricsTest, RenderMentionsStrata) {
  CspExample example = MakeCspExample(1);
  ConditionalReport report =
      EvaluateConditional(MetricId::kDemographicParity, example.input,
                          example.strata, 0.0, 1)
          .ValueOrDie();
  std::string text = RenderConditionalReport(report);
  EXPECT_NE(text.find("young"), std::string::npos);
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
}

// ---- Pinned output: exact report text, error strings, audit JSON ----

std::string ReadGoldenFile(const std::string& name) {
  std::ifstream in(std::string(FAIRLAW_TEST_GOLDEN_DIR) + "/" + name);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Evaluates the conditional metric called `name`. `parameter` is the
/// gap tolerance of conditional statistical parity.
Result<ConditionalReport> EvaluateConditionalNamed(
    const std::string& name, const MetricInput& input,
    const std::vector<std::string>& strata, double parameter,
    size_t min_stratum_size) {
  for (const MetricSpec& spec : MetricTable()) {
    if (spec.conditional_name == name) {
      return EvaluateConditional(spec.id, input, strata, parameter,
                                 min_stratum_size);
    }
  }
  return Status::NotFound("no conditional metric named '" + name + "'");
}

std::string ErrorOf(const Result<ConditionalReport>& report) {
  return report.ok() ? "OK" : report.status().ToString();
}

TEST(PinnedOutputTest, RenderConditionalReportForBothMetrics) {
  CspExample example = MakeCspExample(1);
  // A single-group stratum (skipped only where the inner metric compares
  // groups) and a stratum below the minimum size.
  AddRows(&example.input, &example.strata, "male", "solo", 1, 4);
  AddRows(&example.input, &example.strata, "male", "tiny", 1, 1);
  AddRows(&example.input, &example.strata, "female", "tiny", 0, 1);
  std::string text;
  for (const char* name :
       {"conditional_statistical_parity", "conditional_demographic_disparity"}) {
    text += RenderConditionalReport(
        EvaluateConditionalNamed(name, example.input, example.strata, 0.05,
                                 /*min_stratum_size=*/3)
            .ValueOrDie());
  }
  EXPECT_EQ(text, ReadGoldenFile("conditional_reports.txt"));
}

TEST(PinnedOutputTest, ConditionalErrorMessages) {
  CspExample example = MakeCspExample(3);
  std::vector<std::string> short_strata = example.strata;
  short_strata.pop_back();
  for (const char* name :
       {"conditional_statistical_parity", "conditional_demographic_disparity"}) {
    EXPECT_EQ(ErrorOf(EvaluateConditionalNamed(name, example.input,
                                               short_strata, 0.0, 1)),
              "invalid argument: conditional metric: strata/input size "
              "mismatch");
    EXPECT_EQ(ErrorOf(EvaluateConditionalNamed(name, example.input,
                                               example.strata, 0.0, 100)),
              "invalid argument: " + std::string(name) +
                  ": no stratum was large enough to evaluate");
  }
}

TEST(PinnedOutputTest, AuditResultJson) {
  // Seeded rows: three groups, two strata columns, labels and a score.
  stats::Rng rng(20240501);
  std::string csv = "group,region,tier,pred,label,score\n";
  for (int i = 0; i < 240; ++i) {
    const uint64_t group = rng.UniformInt(3);
    const double score = rng.Uniform();
    const int label = rng.Bernoulli(0.3 + 0.4 * score) ? 1 : 0;
    const int pred = score > 0.4 + 0.1 * static_cast<double>(group) ? 1 : 0;
    csv += "g" + std::to_string(group) + "," +
           (rng.Bernoulli(0.5) ? "north" : "south") + "," +
           (rng.Bernoulli(0.3) ? "senior" : "junior") + "," +
           std::to_string(pred) + "," + std::to_string(label) + "," +
           FormatDouble(score, 4) + "\n";
  }
  data::Table table = data::ReadCsvString(csv).ValueOrDie();
  audit::AuditConfig config;
  config.protected_column = "group";
  config.prediction_column = "pred";
  config.label_column = "label";
  config.strata_columns = {"region", "tier"};
  config.score_column = "score";
  config.calibration_bins = 4;
  config.audit_score_distribution = true;
  audit::AuditResult result =
      audit::Auditor::Run(audit::AuditSource::FromTable(table), config)
          .ValueOrDie();
  EXPECT_EQ(audit::AuditResultToJson(result).ValueOrDie() + "\n",
            ReadGoldenFile("audit_result.json"));
}

}  // namespace
}  // namespace fairlaw::metrics
