// Reproduces the worked examples of paper §III exactly: each TEST below
// builds the literal population the paper describes and checks that the
// metric reaches the paper's verdict.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "metrics/group_metrics.h"

namespace fairlaw::metrics {
namespace {

/// Appends `count` rows with the given group/prediction/label.
void AddRows(MetricInput* input, const std::string& group, int prediction,
             int label, int count) {
  for (int i = 0; i < count; ++i) {
    input->groups.push_back(group);
    input->predictions.push_back(prediction);
    if (label >= 0) input->labels.push_back(label);
  }
}

// ---- §III-A demographic parity: 10 female / 20 male applicants; 10
// males hired (50%); fair iff exactly 5 females hired. ----

MetricInput HiringExample(int females_hired) {
  MetricInput input;
  AddRows(&input, "male", 1, -1, 10);
  AddRows(&input, "male", 0, -1, 10);
  AddRows(&input, "female", 1, -1, females_hired);
  AddRows(&input, "female", 0, -1, 10 - females_hired);
  return input;
}

TEST(PaperExampleA, FiveFemalesHiredIsFair) {
  MetricReport report =
      Evaluate(MetricId::kDemographicParity, HiringExample(5), 0.0)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_DOUBLE_EQ(report.max_gap, 0.0);
  // Both groups at exactly 50%.
  for (const GroupStats& gs : report.groups) {
    EXPECT_DOUBLE_EQ(gs.selection_rate, 0.5);
  }
}

TEST(PaperExampleA, FewerThanFiveIsBiasedAgainstFemales) {
  MetricReport report =
      Evaluate(MetricId::kDemographicParity, HiringExample(3), 0.0)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  EXPECT_NEAR(report.max_gap, 0.2, 1e-12);  // 0.5 vs 0.3
}

TEST(PaperExampleA, MoreThanFiveIsBiasedAgainstMales) {
  MetricReport report =
      Evaluate(MetricId::kDemographicParity, HiringExample(8), 0.0)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  EXPECT_NEAR(report.max_gap, 0.3, 1e-12);  // 0.8 vs 0.5
}

// ---- §III-C equal opportunity: 10 male good matches, 6 female good
// matches; 5 good males hired (TPR 50%); fair iff 3 good females hired.
// ----

MetricInput EqualOpportunityExample(int good_females_hired) {
  MetricInput input;
  // 20 males: 10 good matches (5 hired), 10 bad (not hired).
  AddRows(&input, "male", 1, 1, 5);
  AddRows(&input, "male", 0, 1, 5);
  AddRows(&input, "male", 0, 0, 10);
  // 10 females: 6 good matches, 4 bad (not hired).
  AddRows(&input, "female", 1, 1, good_females_hired);
  AddRows(&input, "female", 0, 1, 6 - good_females_hired);
  AddRows(&input, "female", 0, 0, 4);
  return input;
}

TEST(PaperExampleC, ThreeGoodFemalesHiredIsFair) {
  MetricReport report =
      Evaluate(MetricId::kEqualOpportunity, EqualOpportunityExample(3), 0.0)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_DOUBLE_EQ(report.max_gap, 0.0);
  for (const GroupStats& gs : report.groups) {
    EXPECT_DOUBLE_EQ(gs.tpr, 0.5);
  }
}

TEST(PaperExampleC, FewerIsBiasedAgainstFemales) {
  MetricReport report =
      Evaluate(MetricId::kEqualOpportunity, EqualOpportunityExample(1), 0.0)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  // Female TPR 1/6 vs male 1/2.
  EXPECT_NEAR(report.max_gap, 0.5 - 1.0 / 6.0, 1e-12);
}

TEST(PaperExampleC, MoreIsBiasedAgainstMales) {
  MetricReport report =
      Evaluate(MetricId::kEqualOpportunity, EqualOpportunityExample(6), 0.0)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  EXPECT_NEAR(report.max_gap, 0.5, 1e-12);  // 1.0 vs 0.5
}

// ---- §III-D equalized odds: 6 female / 12 male; 6 male good matches all
// hired, 6 male bad matches all rejected (TPR=1, FPR=0); fair iff all 3
// good females hired and all 3 bad females rejected. ----

MetricInput EqualizedOddsExample(int good_females_hired,
                                 int bad_females_hired) {
  MetricInput input;
  AddRows(&input, "male", 1, 1, 6);   // good matches hired
  AddRows(&input, "male", 0, 0, 6);   // bad matches rejected
  AddRows(&input, "female", 1, 1, good_females_hired);
  AddRows(&input, "female", 0, 1, 3 - good_females_hired);
  AddRows(&input, "female", 1, 0, bad_females_hired);
  AddRows(&input, "female", 0, 0, 3 - bad_females_hired);
  return input;
}

TEST(PaperExampleD, PerfectSeparationIsFair) {
  MetricReport report =
      Evaluate(MetricId::kEqualizedOdds, EqualizedOddsExample(3, 0), 0.0)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_DOUBLE_EQ(report.max_gap, 0.0);
}

TEST(PaperExampleD, WrongPositivesViolate) {
  // Hiring a bad-match female breaks FPR equality even with TPR equal.
  MetricReport report =
      Evaluate(MetricId::kEqualizedOdds, EqualizedOddsExample(3, 1), 0.0)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  EXPECT_NEAR(report.max_gap, 1.0 / 3.0, 1e-12);
}

TEST(PaperExampleD, MissedPositivesViolate) {
  MetricReport report =
      Evaluate(MetricId::kEqualizedOdds, EqualizedOddsExample(2, 0), 0.0)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  EXPECT_NEAR(report.max_gap, 1.0 / 3.0, 1e-12);
}

TEST(PaperExampleD, EqualOpportunityIsWeakerThanEqualizedOdds) {
  // TPR equal but FPR broken: EO passes, EOdds fails — the paper's
  // "more restrictive" claim.
  MetricInput input = EqualizedOddsExample(3, 1);
  EXPECT_TRUE(Evaluate(MetricId::kEqualOpportunity, input, 0.0)
                  .ValueOrDie().satisfied);
  EXPECT_FALSE(Evaluate(MetricId::kEqualizedOdds, input, 0.0)
                   .ValueOrDie().satisfied);
}

// ---- §III-E demographic disparity: 10 females; fair iff more hired
// than rejected. ----

TEST(PaperExampleE, MoreHiredThanRejectedIsFair) {
  MetricInput input;
  AddRows(&input, "female", 1, -1, 6);
  AddRows(&input, "female", 0, -1, 4);
  MetricReport report =
      Evaluate(MetricId::kDemographicDisparity, input, 0.0).ValueOrDie();
  EXPECT_TRUE(report.satisfied);
}

TEST(PaperExampleE, MoreThanFiveRejectedIsUnfair) {
  MetricInput input;
  AddRows(&input, "female", 1, -1, 4);
  AddRows(&input, "female", 0, -1, 6);
  MetricReport report =
      Evaluate(MetricId::kDemographicDisparity, input, 0.0).ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  EXPECT_NE(report.detail.find("female"), std::string::npos);
}

TEST(PaperExampleE, ExactTieIsUnfair) {
  // P(R=+) must strictly exceed P(R=-).
  MetricInput input;
  AddRows(&input, "female", 1, -1, 5);
  AddRows(&input, "female", 0, -1, 5);
  EXPECT_FALSE(Evaluate(MetricId::kDemographicDisparity, input, 0.0)
                   .ValueOrDie().satisfied);
}

// ---- Disparate impact / four-fifths companion ----

TEST(DisparateImpactTest, RatioComputedAgainstBestGroup) {
  MetricInput input;
  AddRows(&input, "male", 1, -1, 50);
  AddRows(&input, "male", 0, -1, 50);   // rate 0.5
  AddRows(&input, "female", 1, -1, 30);
  AddRows(&input, "female", 0, -1, 70);  // rate 0.3
  MetricReport report =
      Evaluate(MetricId::kDisparateImpactRatio, input, 0.8).ValueOrDie();
  EXPECT_NEAR(report.min_ratio, 0.6, 1e-12);
  EXPECT_FALSE(report.satisfied);
  MetricReport lenient =
      Evaluate(MetricId::kDisparateImpactRatio, input, 0.5).ValueOrDie();
  EXPECT_TRUE(lenient.satisfied);
}

TEST(DisparateImpactTest, AllZeroRatesIsAnError) {
  // 0/0 impact is undefined; reporting "no disparity" for a process that
  // selected nobody would be a wrong legal conclusion, so the metric
  // refuses instead of passing silently.
  MetricInput input;
  AddRows(&input, "a", 0, -1, 10);
  AddRows(&input, "b", 0, -1, 10);
  Result<MetricReport> report =
      Evaluate(MetricId::kDisparateImpactRatio, input, 0.8);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsFailedPrecondition());
}

// ---- Predictive parity & accuracy equality companions ----

TEST(PredictiveParityTest, EqualPpvSatisfied) {
  MetricInput input;
  // Group a: 4 predicted positive, 3 correct (PPV .75).
  AddRows(&input, "a", 1, 1, 3);
  AddRows(&input, "a", 1, 0, 1);
  AddRows(&input, "a", 0, 0, 6);
  // Group b: 8 predicted positive, 6 correct (PPV .75).
  AddRows(&input, "b", 1, 1, 6);
  AddRows(&input, "b", 1, 0, 2);
  AddRows(&input, "b", 0, 0, 2);
  MetricReport report =
      Evaluate(MetricId::kPredictiveParity, input, 0.0).ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_DOUBLE_EQ(report.max_gap, 0.0);
}

TEST(PredictiveParityTest, UndefinedWithoutPositivePredictions) {
  MetricInput input;
  AddRows(&input, "a", 0, 1, 5);
  AddRows(&input, "b", 1, 1, 5);
  EXPECT_FALSE(Evaluate(MetricId::kPredictiveParity, input, 0.0).ok());
}

TEST(AccuracyEqualityTest, GapComputed) {
  MetricInput input;
  AddRows(&input, "a", 1, 1, 9);
  AddRows(&input, "a", 0, 1, 1);   // group a accuracy 0.9
  AddRows(&input, "b", 1, 1, 5);
  AddRows(&input, "b", 0, 1, 5);   // group b accuracy 0.5
  MetricReport report =
      Evaluate(MetricId::kAccuracyEquality, input, 0.05).ValueOrDie();
  EXPECT_NEAR(report.max_gap, 0.4, 1e-12);
  EXPECT_FALSE(report.satisfied);
}

// ---- Tolerance semantics & validation ----

TEST(MetricValidationTest, ToleranceAllowsSmallGaps) {
  MetricInput input = HiringExample(4);  // gap 0.1
  EXPECT_FALSE(Evaluate(MetricId::kDemographicParity, input, 0.05)
                   .ValueOrDie().satisfied);
  EXPECT_TRUE(Evaluate(MetricId::kDemographicParity, input, 0.15)
                  .ValueOrDie().satisfied);
  EXPECT_FALSE(Evaluate(MetricId::kDemographicParity, input, -0.1).ok());
}

TEST(MetricValidationTest, SingleGroupRejected) {
  MetricInput input;
  AddRows(&input, "only", 1, -1, 10);
  EXPECT_FALSE(Evaluate(MetricId::kDemographicParity, input, 0.0).ok());
}

TEST(MetricValidationTest, LabelRequirementsEnforced) {
  MetricInput input = HiringExample(5);  // no labels
  EXPECT_FALSE(Evaluate(MetricId::kEqualOpportunity, input, 0.0).ok());
  EXPECT_FALSE(Evaluate(MetricId::kEqualizedOdds, input, 0.0).ok());
  EXPECT_FALSE(Evaluate(MetricId::kPredictiveParity, input, 0.0).ok());
}

TEST(MetricValidationTest, GroupWithoutPositivesRejectedForEo) {
  MetricInput input;
  AddRows(&input, "a", 1, 1, 5);
  AddRows(&input, "a", 0, 0, 5);
  AddRows(&input, "b", 0, 0, 10);  // no actual positives in b
  EXPECT_FALSE(Evaluate(MetricId::kEqualOpportunity, input, 0.0).ok());
  EXPECT_FALSE(Evaluate(MetricId::kEqualizedOdds, input, 0.0).ok());
}

TEST(MetricValidationTest, InputStructuralChecks) {
  MetricInput input;
  EXPECT_FALSE(input.Validate(false).ok());  // empty
  input.groups = {"a", "b"};
  input.predictions = {0, 2};
  EXPECT_FALSE(input.Validate(false).ok());  // bad prediction value
  input.predictions = {0, 1};
  input.labels = {1};
  EXPECT_FALSE(input.Validate(false).ok());  // label length
  input.labels = {1, 3};
  EXPECT_FALSE(input.Validate(false).ok());  // bad label value
  input.labels = {1, 0};
  EXPECT_TRUE(input.Validate(true).ok());
}

TEST(GroupStatsTest, RatesComputedPerGroup) {
  MetricInput input;
  AddRows(&input, "a", 1, 1, 2);
  AddRows(&input, "a", 1, 0, 1);
  AddRows(&input, "a", 0, 1, 1);
  AddRows(&input, "a", 0, 0, 2);
  AddRows(&input, "b", 1, 1, 1);
  AddRows(&input, "b", 0, 0, 1);
  auto stats = ComputeGroupStats(input, true).ValueOrDie();
  ASSERT_EQ(stats.size(), 2u);
  const GroupStats& a = stats[0];
  EXPECT_EQ(a.group, "a");
  EXPECT_EQ(a.count, 6);
  EXPECT_DOUBLE_EQ(a.selection_rate, 0.5);
  EXPECT_DOUBLE_EQ(a.tpr, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.fpr, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.ppv, 2.0 / 3.0);
}

TEST(RenderReportTest, MentionsVerdictAndGroups) {
  MetricReport report =
      Evaluate(MetricId::kDemographicParity, HiringExample(3), 0.0)
          .ValueOrDie();
  std::string text = RenderReport(report);
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
  EXPECT_NE(text.find("female"), std::string::npos);
  EXPECT_NE(text.find("male"), std::string::npos);
}

// ---- Pinned output: exact report text and error strings ----

std::string ReadGoldenFile(const std::string& name) {
  std::ifstream in(std::string(FAIRLAW_TEST_GOLDEN_DIR) + "/" + name);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Evaluates the group metric called `name` on `input`. `parameter` is
/// the gap tolerance, or the ratio threshold for disparate_impact_ratio.
Result<MetricReport> EvaluateNamed(const std::string& name,
                                   const MetricInput& input,
                                   double parameter) {
  for (const MetricSpec& spec : MetricTable()) {
    if (spec.name == name) return Evaluate(spec.id, input, parameter);
  }
  return Status::NotFound("no metric named '" + name + "'");
}

const char* const kPinnedMetrics[] = {
    "demographic_parity", "demographic_disparity", "disparate_impact_ratio",
    "equal_opportunity",  "equalized_odds",        "predictive_parity",
    "accuracy_equality",
};

/// Three labelled groups with every confusion-matrix cell non-empty.
MetricInput PinnedInput() {
  MetricInput input;
  for (const auto& [group, tp, fp, fn, tn] :
       {std::tuple<const char*, int, int, int, int>{"a", 4, 1, 2, 3},
        {"b", 2, 1, 2, 3},
        {"c", 3, 1, 1, 1}}) {
    AddRows(&input, group, 1, 1, tp);
    AddRows(&input, group, 1, 0, fp);
    AddRows(&input, group, 0, 1, fn);
    AddRows(&input, group, 0, 0, tn);
  }
  return input;
}

std::string ErrorOf(const Result<MetricReport>& report) {
  return report.ok() ? "OK" : report.status().ToString();
}

TEST(PinnedOutputTest, RenderReportForEveryMetric) {
  const MetricInput input = PinnedInput();
  std::string text;
  for (const char* name : kPinnedMetrics) {
    const double parameter =
        std::string(name) == "disparate_impact_ratio" ? 0.8 : 0.05;
    text += RenderReport(EvaluateNamed(name, input, parameter).ValueOrDie());
  }
  // Passing verdicts render their own detail lines.
  text += RenderReport(
      EvaluateNamed("disparate_impact_ratio", input, 0.5).ValueOrDie());
  text += RenderReport(
      EvaluateNamed("demographic_disparity", HiringExample(8), 0.0)
          .ValueOrDie());
  EXPECT_EQ(text, ReadGoldenFile("metric_reports.txt"));
}

TEST(PinnedOutputTest, ErrorMessages) {
  const MetricInput input = PinnedInput();
  EXPECT_EQ(ErrorOf(EvaluateNamed("demographic_parity", input, -0.1)),
            "invalid argument: fairness metric: tolerance must be >= 0");
  EXPECT_EQ(ErrorOf(EvaluateNamed("disparate_impact_ratio", input, 0.0)),
            "invalid argument: disparate_impact: threshold must lie in (0,1]");
  EXPECT_EQ(ErrorOf(EvaluateNamed("disparate_impact_ratio", input, 1.5)),
            "invalid argument: disparate_impact: threshold must lie in (0,1]");

  MetricInput one_group;
  AddRows(&one_group, "only", 1, 1, 4);
  EXPECT_EQ(ErrorOf(EvaluateNamed("demographic_parity", one_group, 0.0)),
            "invalid argument: fairness metric: need at least 2 protected "
            "groups, got 1");
  EXPECT_EQ(ErrorOf(EvaluateNamed("demographic_parity", MetricInput{}, 0.0)),
            "invalid argument: MetricInput: empty input");
  EXPECT_EQ(ErrorOf(EvaluateNamed("equal_opportunity", HiringExample(5), 0.0)),
            "invalid argument: MetricInput: this metric requires labels for "
            "every row");

  MetricInput no_positives = input;
  AddRows(&no_positives, "d", 0, 0, 3);
  EXPECT_EQ(ErrorOf(EvaluateNamed("equal_opportunity", no_positives, 0.0)),
            "invalid argument: equal_opportunity: group 'd' has no actual "
            "positives; TPR undefined");
  MetricInput no_negatives = input;
  AddRows(&no_negatives, "d", 1, 1, 3);
  EXPECT_EQ(ErrorOf(EvaluateNamed("equalized_odds", no_negatives, 0.0)),
            "invalid argument: equalized_odds: group 'd' lacks actual "
            "positives or negatives");
  MetricInput no_predictions = input;
  AddRows(&no_predictions, "d", 0, 1, 3);
  EXPECT_EQ(ErrorOf(EvaluateNamed("predictive_parity", no_predictions, 0.0)),
            "invalid argument: predictive_parity: group 'd' has no positive "
            "predictions; PPV undefined");

  MetricInput nobody_selected;
  AddRows(&nobody_selected, "a", 0, -1, 5);
  AddRows(&nobody_selected, "b", 0, -1, 5);
  EXPECT_EQ(
      ErrorOf(EvaluateNamed("disparate_impact_ratio", nobody_selected, 0.8)),
      "failed precondition: disparate_impact_ratio: no group has a positive "
      "selection rate; the ratio is undefined");
}

TEST(MetricValidationTest, LabelRowsRefuseLabelFreeStats) {
  // Statistics computed without labels read every TPR, FPR, PPV and
  // accuracy as 0, so a label-requiring row must refuse them instead of
  // reporting a zero gap.
  MetricInput input = PinnedInput();
  input.labels.clear();
  std::vector<GroupStats> stats =
      ComputeGroupStats(input, /*with_labels=*/false).ValueOrDie();
  for (const MetricSpec& spec : MetricTable()) {
    Result<MetricReport> report = Evaluate(spec.id, stats, 0.8);
    if (!spec.requires_labels) {
      EXPECT_TRUE(report.ok()) << spec.name;
      continue;
    }
    EXPECT_EQ(report.status().ToString(),
              "invalid argument: " + std::string(spec.name) +
                  ": requires labels; group 'a' has none");
  }
}

}  // namespace
}  // namespace fairlaw::metrics
