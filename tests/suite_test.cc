// Integration: the one-call fairness suite over a full synthetic
// pipeline (generate -> train -> predict -> audit everything).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "audit/auditor.h"
#include "core/suite.h"
#include "data/csv.h"
#include "ml/logistic_regression.h"
#include "simulation/scenarios.h"

namespace fairlaw {
namespace {

using fairlaw::stats::Rng;

/// Generates biased hiring data, trains an unaware model on it, and
/// appends the model's predictions as a "pred" column.
data::Table PipelineTable(double label_bias, double proxy_strength,
                          uint64_t seed) {
  Rng rng(seed);
  sim::HiringOptions options;
  options.n = 5000;
  options.label_bias = label_bias;
  options.proxy_strength = proxy_strength;
  sim::ScenarioData scenario =
      sim::MakeHiringScenario(options, &rng).ValueOrDie();
  ml::Dataset dataset =
      ml::DatasetFromTable(scenario.table, scenario.feature_columns,
                           scenario.label_column)
          .ValueOrDie();
  ml::LogisticRegression model;
  EXPECT_TRUE(model.Fit(dataset).ok());
  std::vector<int> predictions =
      model.PredictBatch(dataset.features).ValueOrDie();
  std::vector<int64_t> prediction_column(predictions.begin(),
                                         predictions.end());
  return scenario.table
      .AddColumn("pred", data::Column::FromInt64s(prediction_column))
      .ValueOrDie();
}

SuiteConfig FullConfig() {
  SuiteConfig config;
  config.audit.protected_column = "gender";
  config.audit.prediction_column = "pred";
  config.audit.label_column = "merit";  // audit against gender-blind merit
  config.audit.tolerance = 0.05;
  config.proxy_candidates = {"university", "experience", "test_score"};
  config.subgroup_columns = {"gender"};
  config.subgroup_options.max_depth = 1;
  return config;
}

TEST(SuiteTest, BiasedPipelineFailsAcrossTheBoard) {
  data::Table table = PipelineTable(1.5, 1.5, 3);
  SuiteReport report = RunFairnessSuite(table, FullConfig()).ValueOrDie();
  EXPECT_FALSE(report.all_clear);
  EXPECT_FALSE(report.audit.all_satisfied);
  // The university proxy is flagged.
  bool proxy_flagged = false;
  for (const audit::ProxyFinding& finding : report.proxies) {
    if (finding.feature == "university" && finding.flagged) {
      proxy_flagged = true;
    }
  }
  EXPECT_TRUE(proxy_flagged);
  ASSERT_TRUE(report.four_fifths.has_value());
  EXPECT_FALSE(report.four_fifths->passed);
  ASSERT_TRUE(report.sampling.has_value());
  EXPECT_TRUE(report.sampling->all_adequate);  // 5000 rows is plenty

  std::string text = report.Render();
  EXPECT_NE(text.find("issues found"), std::string::npos);
  EXPECT_NE(text.find("PROXY"), std::string::npos);
}

TEST(SuiteTest, UnbiasedPipelineMostlyClear) {
  data::Table table = PipelineTable(0.0, 0.0, 5);
  SuiteConfig config = FullConfig();
  SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
  // Demographic parity against merit-fair predictions.
  const metrics::MetricReport* dp =
      report.audit.Find("demographic_parity").ValueOrDie();
  EXPECT_TRUE(dp->satisfied);
  for (const audit::ProxyFinding& finding : report.proxies) {
    EXPECT_FALSE(finding.flagged) << finding.feature;
  }
  ASSERT_TRUE(report.four_fifths.has_value());
  EXPECT_TRUE(report.four_fifths->passed);
}

TEST(SuiteTest, OptionalStagesCanBeDisabled) {
  data::Table table = PipelineTable(1.0, 1.0, 7);
  SuiteConfig config = FullConfig();
  config.proxy_candidates.clear();
  config.subgroup_columns.clear();
  config.check_sampling = false;
  config.check_four_fifths = false;
  SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
  EXPECT_TRUE(report.proxies.empty());
  EXPECT_FALSE(report.subgroups.has_value());
  EXPECT_FALSE(report.sampling.has_value());
  EXPECT_FALSE(report.four_fifths.has_value());
}

TEST(SuiteTest, RepresentationAuditFlagsSkewedComposition) {
  data::Table table = PipelineTable(0.5, 0.5, 11);
  SuiteConfig config = FullConfig();
  // Population is 50/50 but the hiring pool is ~1/3 female: flagged.
  config.population_shares = {{"female", 0.5}, {"male", 0.5}};
  SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
  ASSERT_TRUE(report.representation.has_value());
  EXPECT_FALSE(report.representation->composition_ok);
  EXPECT_FALSE(report.all_clear);
  EXPECT_NE(report.Render().find("UNDER-REPRESENTED"), std::string::npos);

  // Matching reference passes.
  config.population_shares = {{"female", 1.0 / 3.0}, {"male", 2.0 / 3.0}};
  SuiteReport matched = RunFairnessSuite(table, config).ValueOrDie();
  ASSERT_TRUE(matched.representation.has_value());
  EXPECT_TRUE(matched.representation->composition_ok);
}

TEST(SuiteTest, BadConfigSurfacesError) {
  data::Table table = PipelineTable(1.0, 1.0, 9);
  SuiteConfig config = FullConfig();
  config.audit.protected_column = "missing";
  EXPECT_FALSE(RunFairnessSuite(table, config).ok());
}

// The same 90 rows keyed three ways: by a string, an int64 and a bool
// column. The string and int64 keys split the rows 50/30/10 (interleaved,
// so first-seen order is not sorted order), the bool key 50/40.
data::Table KeyTypesTable() {
  static constexpr const char* kNames[] = {"north", "south", "east"};
  static constexpr const char* kCodes[] = {"7", "-2", "40"};
  static constexpr int kSelectTenths[] = {6, 4, 2};
  std::string csv = "s,i,b,pred,label\n";
  for (int row = 0; row < 90; ++row) {
    const int g = row % 9 < 5 ? 0 : row % 9 < 8 ? 1 : 2;
    const int pred = (row * 7) % 10 < kSelectTenths[g] ? 1 : 0;
    const int label = row % 4 == 0 ? 1 - pred : pred;
    csv += std::string(kNames[g]) + "," + kCodes[g] + "," +
           (g == 0 ? "true" : "false") + "," + std::to_string(pred) + "," +
           std::to_string(label) + "\n";
  }
  return data::ReadCsvString(csv).ValueOrDie();
}

void ExpectSameFourFifths(const legal::FourFifthsResult& a,
                          const legal::FourFifthsResult& b) {
  EXPECT_EQ(a.reference_group, b.reference_group);
  EXPECT_EQ(a.reference_rate, b.reference_rate);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.adverse_impact_indicated, b.adverse_impact_indicated);
  EXPECT_EQ(a.detail, b.detail);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t g = 0; g < a.groups.size(); ++g) {
    const legal::FourFifthsGroup& x = a.groups[g];
    const legal::FourFifthsGroup& y = b.groups[g];
    EXPECT_EQ(x.group, y.group);
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.selected, y.selected);
    EXPECT_EQ(x.selection_rate, y.selection_rate);
    EXPECT_EQ(x.impact_ratio, y.impact_ratio);
    EXPECT_EQ(x.below_threshold, y.below_threshold);
    EXPECT_EQ(x.significance.statistic, y.significance.statistic);
    EXPECT_EQ(x.significance.p_value, y.significance.p_value);
    EXPECT_EQ(x.significance.significant, y.significance.significant);
  }
}

void ExpectSameSampling(const audit::SamplingReport& a,
                        const audit::SamplingReport& b) {
  EXPECT_EQ(a.all_adequate, b.all_adequate);
  EXPECT_EQ(a.detail, b.detail);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t g = 0; g < a.groups.size(); ++g) {
    const audit::GroupSupport& x = a.groups[g];
    const audit::GroupSupport& y = b.groups[g];
    EXPECT_EQ(x.group, y.group);
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.share, y.share);
    EXPECT_EQ(x.selection_rate, y.selection_rate);
    EXPECT_EQ(x.ci_halfwidth, y.ci_halfwidth);
    EXPECT_EQ(x.adequate, y.adequate);
  }
}

// The suite screens the audit's group tallies; the row adapters count a
// MetricInput of the table. Both must give the same screens. The
// representation screen names each group by its rendered key, so the
// reference lists int64 and bool keys as they print.
TEST(SuiteTest, ScreensEqualTheRowAdaptersOnEveryKeyType) {
  const data::Table table = KeyTypesTable();
  const std::map<std::string, std::map<std::string, double>> shares = {
      {"s", {{"north", 5.0}, {"south", 3.0}, {"east", 1.0}}},
      {"i", {{"7", 5.0}, {"-2", 3.0}, {"40", 1.0}}},
      {"b", {{"true", 5.0}, {"false", 4.0}}}};
  for (const char* protected_column : {"s", "i", "b"}) {
    for (const char* label_column : {"", "label"}) {
      SCOPED_TRACE(std::string(protected_column) + " label='" +
                   label_column + "'");
      SuiteConfig config;
      config.audit.protected_column = protected_column;
      config.audit.prediction_column = "pred";
      config.audit.label_column = label_column;
      config.sampling_options.min_count = 20;
      config.sampling_options.max_ci_halfwidth = 0.15;
      config.population_shares = shares.at(protected_column);
      SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
      ASSERT_TRUE(report.four_fifths.has_value());
      ASSERT_TRUE(report.sampling.has_value());
      ASSERT_TRUE(report.representation.has_value());
      // The reference shares are the data's, so every count is its
      // share of the 90 rows.
      EXPECT_TRUE(report.representation->composition_ok);
      ASSERT_EQ(report.representation->groups.size(),
                config.population_shares.size());
      for (const audit::GroupRepresentation& rep :
           report.representation->groups) {
        const double share = config.population_shares.at(rep.group);
        EXPECT_EQ(rep.count, static_cast<int64_t>(share * 10.0)) << rep.group;
      }

      const metrics::MetricInput input =
          audit::MetricInputFromTable(table, protected_column, "pred",
                                      label_column)
              .ValueOrDie();
      ExpectSameFourFifths(*report.four_fifths,
                           legal::FourFifthsTest(input).ValueOrDie());
      ExpectSameSampling(
          *report.sampling,
          audit::AssessSamplingAdequacy(input, config.sampling_options)
              .ValueOrDie());
    }
  }
  // The fixture exercises both verdicts of each screen somewhere.
  SuiteConfig config;
  config.audit.protected_column = "s";
  config.audit.prediction_column = "pred";
  config.sampling_options.min_count = 20;
  config.sampling_options.max_ci_halfwidth = 0.15;
  SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
  EXPECT_FALSE(report.four_fifths->passed);
  EXPECT_FALSE(report.sampling->all_adequate);
  EXPECT_TRUE(report.sampling->groups[0].adequate);
}

TEST(SuiteTest, SingleGroupAndZeroSelectionErrorsArePinned) {
  SuiteConfig config;
  config.audit.protected_column = "g";
  config.audit.prediction_column = "pred";
  const data::Table single =
      data::ReadCsvString("g,pred\na,1\na,0\na,1\n").ValueOrDie();
  EXPECT_EQ(RunFairnessSuite(single, config).status().ToString(),
            "invalid argument: fairness metric: need at least 2 protected "
            "groups, got 1");
  const data::Table none_selected =
      data::ReadCsvString("g,pred\na,0\nb,0\na,0\nb,0\n").ValueOrDie();
  EXPECT_EQ(RunFairnessSuite(none_selected, config).status().ToString(),
            "failed precondition: disparate_impact_ratio: no group has a "
            "positive selection rate; the ratio is undefined");
}

}  // namespace
}  // namespace fairlaw
