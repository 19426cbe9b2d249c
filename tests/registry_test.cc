// The metric table is the registry of the group metrics fairlaw ships:
// these tests pin its rows by name, order and label requirement, and run
// every row through the MetricInput adapter.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "metrics/group_metrics.h"

namespace fairlaw::metrics {
namespace {

MetricInput SampleInput() {
  MetricInput input;
  for (int i = 0; i < 10; ++i) {
    input.groups.push_back(i < 5 ? "a" : "b");
    input.predictions.push_back(i % 2);
    input.labels.push_back(i % 2);
  }
  return input;
}

TEST(RegistryTest, TablePinsSevenNamesInAuditOrder) {
  const std::vector<std::string> expected = {
      "demographic_parity", "demographic_disparity", "disparate_impact_ratio",
      "equal_opportunity",  "equalized_odds",        "predictive_parity",
      "accuracy_equality",
  };
  std::vector<std::string> names;
  for (const MetricSpec& spec : MetricTable()) {
    EXPECT_EQ(static_cast<size_t>(spec.id), names.size()) << spec.name;
    names.emplace_back(spec.name);
  }
  EXPECT_EQ(names, expected);
}

TEST(RegistryTest, RowsDeclareLabelRequirements) {
  const bool requires_labels[] = {false, false, false, true,
                                  true,  true,  true};
  ASSERT_EQ(MetricTable().size(), std::size(requires_labels));
  for (size_t i = 0; i < std::size(requires_labels); ++i) {
    EXPECT_EQ(MetricTable()[i].requires_labels, requires_labels[i])
        << MetricTable()[i].name;
  }
}

TEST(RegistryTest, OnlyParityRowsHaveConditionalForms) {
  for (const MetricSpec& spec : MetricTable()) {
    if (spec.id == MetricId::kDemographicParity) {
      EXPECT_EQ(spec.conditional_name, "conditional_statistical_parity");
    } else if (spec.id == MetricId::kDemographicDisparity) {
      EXPECT_EQ(spec.conditional_name, "conditional_demographic_disparity");
    } else {
      EXPECT_TRUE(spec.conditional_name.empty()) << spec.name;
    }
  }
}

TEST(RegistryTest, EveryRowEvaluatesThroughTheAdapter) {
  const MetricInput input = SampleInput();
  for (const MetricSpec& spec : MetricTable()) {
    const double parameter =
        spec.rule == VerdictRule::kRatioAtLeastThreshold ? 0.8 : 0.1;
    Result<MetricReport> report = Evaluate(spec.id, input, parameter);
    ASSERT_TRUE(report.ok()) << spec.name << ": "
                             << report.status().ToString();
    EXPECT_EQ(report->metric_name, spec.name);
    EXPECT_EQ(report->groups.size(), 2u) << spec.name;
  }
}

TEST(RegistryTest, LabelRowsDemandLabelsFromRowInput) {
  MetricInput input = SampleInput();
  input.labels.clear();
  for (const MetricSpec& spec : MetricTable()) {
    Result<MetricReport> report = Evaluate(spec.id, input, 0.8);
    EXPECT_EQ(report.ok(), !spec.requires_labels) << spec.name;
  }
}

}  // namespace
}  // namespace fairlaw::metrics
