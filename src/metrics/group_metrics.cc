#include "metrics/group_metrics.h"

#include <algorithm>
#include <array>
#include <string>

#include "base/string_util.h"

namespace fairlaw::metrics {
namespace {

constexpr Rate kSelectionRate[] = {Rate::kSelection};
constexpr Rate kTprRate[] = {Rate::kTpr};
constexpr Rate kTprFprRates[] = {Rate::kTpr, Rate::kFpr};
constexpr Rate kPpvRate[] = {Rate::kPpv};
constexpr Rate kAccuracyRate[] = {Rate::kAccuracy};

constexpr std::array<MetricSpec, 7> kTable = {{
    {MetricId::kDemographicParity, "demographic_parity", "III-A", false,
     kSelectionRate, VerdictRule::kGapWithinTolerance, {},
     "conditional_statistical_parity"},
    {MetricId::kDemographicDisparity, "demographic_disparity", "III-E", false,
     kSelectionRate, VerdictRule::kEveryRateAboveHalf, {},
     "conditional_demographic_disparity"},
    {MetricId::kDisparateImpactRatio, "disparate_impact_ratio", "IV-A", false,
     kSelectionRate, VerdictRule::kRatioAtLeastThreshold,
     // 0/0 is undefined; a silent ratio of 1.0 would report a clean
     // screen for a selection process that admitted nobody.
     {[](const GroupStats& gs) { return gs.selection_rate > 0.0; },
      /*every_group=*/false,
      "no group has a positive selection rate; the ratio is undefined"},
     ""},
    {MetricId::kEqualOpportunity, "equal_opportunity", "III-C", true,
     kTprRate, VerdictRule::kGapWithinTolerance,
     {[](const GroupStats& gs) { return gs.actual_positives > 0; },
      /*every_group=*/true, "has no actual positives; TPR undefined"},
     ""},
    {MetricId::kEqualizedOdds, "equalized_odds", "III-D", true, kTprFprRates,
     VerdictRule::kGapWithinTolerance,
     {[](const GroupStats& gs) {
        return gs.actual_positives > 0 && gs.actual_negatives > 0;
      },
      /*every_group=*/true, "lacks actual positives or negatives"},
     ""},
    {MetricId::kPredictiveParity, "predictive_parity", "III (companion)",
     true, kPpvRate, VerdictRule::kGapWithinTolerance,
     {[](const GroupStats& gs) { return gs.positive_predictions > 0; },
      /*every_group=*/true, "has no positive predictions; PPV undefined"},
     ""},
    {MetricId::kAccuracyEquality, "accuracy_equality", "III (companion)",
     true, kAccuracyRate, VerdictRule::kGapWithinTolerance, {}, ""},
}};

std::string_view RateName(Rate rate) {
  switch (rate) {
    case Rate::kSelection:
      return "selection-rate";
    case Rate::kTpr:
      return "tpr";
    case Rate::kFpr:
      return "fpr";
    case Rate::kPpv:
      return "ppv";
    case Rate::kAccuracy:
      return "accuracy";
  }
  return "";
}

double RateOf(const GroupStats& gs, Rate rate) {
  switch (rate) {
    case Rate::kSelection:
      return gs.selection_rate;
    case Rate::kTpr:
      return gs.tpr;
    case Rate::kFpr:
      return gs.fpr;
    case Rate::kPpv:
      return gs.ppv;
    case Rate::kAccuracy: {
      // accuracy = (TP + TN) / n, with TN = actual_negatives - FP.
      const double correct = static_cast<double>(
          gs.true_positives + (gs.actual_negatives - gs.false_positives));
      return gs.count > 0 ? correct / static_cast<double>(gs.count) : 0.0;
    }
  }
  return 0.0;
}

Status CheckParameter(VerdictRule rule, double parameter) {
  switch (rule) {
    case VerdictRule::kGapWithinTolerance:
      if (parameter < 0.0) {
        return Status::Invalid("fairness metric: tolerance must be >= 0");
      }
      break;
    case VerdictRule::kRatioAtLeastThreshold:
      if (parameter <= 0.0 || parameter > 1.0) {
        return Status::Invalid("disparate_impact: threshold must lie in (0,1]");
      }
      break;
    case VerdictRule::kEveryRateAboveHalf:
      break;
  }
  return Status::OK();
}

/// Checks everything a row needs of its groups before any rate is read.
Status CheckGroups(const MetricSpec& spec,
                   const std::vector<GroupStats>& stats) {
  if (spec.compares_groups() && stats.size() < 2) {
    return Status::Invalid("fairness metric: need at least 2 protected "
                           "groups, got " + std::to_string(stats.size()));
  }
  if (spec.requires_labels) {
    for (const GroupStats& gs : stats) {
      // Statistics computed with labels split every row into an actual
      // positive or negative; without them every rate reads 0.
      if (gs.actual_positives + gs.actual_negatives != gs.count) {
        return Status::Invalid(std::string(spec.name) +
                               ": requires labels; group '" + gs.group +
                               "' has none");
      }
    }
  }
  const GroupPrecondition& pre = spec.precondition;
  if (pre.holds == nullptr) return Status::OK();
  if (pre.every_group) {
    for (const GroupStats& gs : stats) {
      if (!pre.holds(gs)) {
        return Status::Invalid(std::string(spec.name) + ": group '" +
                               gs.group + "' " + std::string(pre.error));
      }
    }
    return Status::OK();
  }
  if (std::none_of(stats.begin(), stats.end(), pre.holds)) {
    return Status::FailedPrecondition(std::string(spec.name) + ": " +
                                      std::string(pre.error));
  }
  return Status::OK();
}

}  // namespace

std::span<const MetricSpec> MetricTable() { return kTable; }

Result<MetricReport> Evaluate(MetricId id, std::vector<GroupStats> stats,
                              double parameter) {
  const MetricSpec& spec = kTable[static_cast<size_t>(id)];
  FAIRLAW_RETURN_NOT_OK(CheckParameter(spec.rule, parameter));
  FAIRLAW_RETURN_NOT_OK(CheckGroups(spec, stats));

  MetricReport report;
  report.metric_name = std::string(spec.name);
  report.tolerance = parameter;
  std::vector<std::vector<double>> rates(spec.rates.size());
  for (size_t r = 0; r < spec.rates.size(); ++r) {
    rates[r].reserve(stats.size());
    for (const GroupStats& gs : stats) {
      rates[r].push_back(RateOf(gs, spec.rates[r]));
    }
  }
  for (const std::vector<double>& rate : rates) {
    report.max_gap = std::max(report.max_gap, MaxGap(rate));
    report.min_ratio = std::min(report.min_ratio, MinRatio(rate));
  }

  switch (spec.rule) {
    case VerdictRule::kGapWithinTolerance:
      report.satisfied = report.max_gap <= parameter;
      if (rates.size() > 1) {
        for (size_t r = 0; r < rates.size(); ++r) {
          if (r > 0) report.detail += " ";
          report.detail += std::string(RateName(spec.rates[r])) + "_gap=" +
                           FormatDouble(MaxGap(rates[r]), 4);
        }
      }
      break;
    case VerdictRule::kRatioAtLeastThreshold:
      report.satisfied = report.min_ratio >= parameter;
      report.detail = std::string(RateName(spec.rates[0])) + " ratio " +
                      FormatDouble(report.min_ratio, 4) +
                      (report.satisfied ? " passes" : " fails") + " the " +
                      FormatDouble(parameter, 2) + " threshold";
      break;
    case VerdictRule::kEveryRateAboveHalf: {
      // P(R=+|A=a) > P(R=-|A=a)  <=>  rate > 1/2.
      report.tolerance = 0.0;
      report.satisfied = true;
      report.max_gap = 0.0;
      std::string failing;
      for (size_t g = 0; g < stats.size(); ++g) {
        if (rates[0][g] > 0.5) continue;
        report.satisfied = false;
        report.max_gap = std::max(report.max_gap, 0.5 - rates[0][g]);
        if (!failing.empty()) failing += ", ";
        failing += stats[g].group;
      }
      if (!report.satisfied) {
        report.detail =
            "groups with more rejections than acceptances: " + failing;
      }
      break;
    }
  }
  report.groups = std::move(stats);
  return report;
}

Result<MetricReport> Evaluate(MetricId id, const MetricInput& input,
                              double parameter) {
  // ComputeGroupStats validates first, demanding labels when the row
  // requires them, so the error names the missing piece.
  FAIRLAW_ASSIGN_OR_RETURN(
      std::vector<GroupStats> stats,
      ComputeGroupStats(input,
                        kTable[static_cast<size_t>(id)].requires_labels));
  return Evaluate(id, std::move(stats), parameter);
}

}  // namespace fairlaw::metrics
