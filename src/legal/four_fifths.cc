#include "legal/four_fifths.h"

#include "base/string_util.h"

namespace fairlaw::legal {

Result<FourFifthsResult> FourFifthsTest(
    const std::vector<metrics::GroupStats>& stats, double threshold,
    double alpha) {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::Invalid("FourFifthsTest: threshold must lie in (0,1]");
  }
  if (stats.size() < 2) {
    return Status::Invalid("FourFifthsTest: need >= 2 groups");
  }

  const metrics::GroupStats* reference = &stats[0];
  for (const metrics::GroupStats& gs : stats) {
    if (gs.count == 0) {
      // A tally only materializes observed groups, so an empty one is a
      // library invariant broken, not a finding about the data.
      return Status::Internal("FourFifthsTest: empty group '" + gs.group +
                              "' in group stats");
    }
    if (gs.selection_rate > reference->selection_rate) reference = &gs;
  }
  if (reference->selection_rate <= 0.0) {
    // Every group selects nobody: the impact ratio 0/0 is undefined and a
    // silent 1.0 would read as a clean screen in a legal report.
    return Status::FailedPrecondition(
        "FourFifthsTest: no group has a positive selection rate; impact "
        "ratios are undefined");
  }

  FourFifthsResult result;
  result.reference_group = reference->group;
  result.reference_rate = reference->selection_rate;
  result.threshold = threshold;

  std::string failing;
  for (const metrics::GroupStats& gs : stats) {
    FourFifthsGroup group;
    group.group = gs.group;
    group.count = gs.count;
    group.selected = gs.positive_predictions;
    group.selection_rate = gs.selection_rate;
    group.impact_ratio = gs.selection_rate / result.reference_rate;
    group.below_threshold = group.impact_ratio < threshold;
    if (gs.group != result.reference_group) {
      FAIRLAW_ASSIGN_OR_RETURN(
          group.significance,
          stats::TwoProportionZTest(gs.positive_predictions, gs.count,
                                    reference->positive_predictions,
                                    reference->count, alpha));
    }
    if (group.below_threshold) {
      result.passed = false;
      if (group.significance.significant) {
        result.adverse_impact_indicated = true;
      }
      if (!failing.empty()) failing += ", ";
      failing += gs.group;
    }
    result.groups.push_back(std::move(group));
  }
  if (!result.passed) {
    result.detail = "groups below the " + FormatDouble(threshold, 2) +
                    " ratio vs '" + result.reference_group + "': " + failing;
  }
  return result;
}

Result<FourFifthsResult> FourFifthsTest(const metrics::MetricInput& input,
                                        double threshold, double alpha) {
  FAIRLAW_ASSIGN_OR_RETURN(
      std::vector<metrics::GroupStats> stats,
      metrics::ComputeGroupStats(input, /*with_labels=*/false));
  return FourFifthsTest(stats, threshold, alpha);
}

std::string RenderFourFifths(const FourFifthsResult& result) {
  std::string out = "four-fifths rule (threshold " +
                    FormatDouble(result.threshold, 2) + ", reference '" +
                    result.reference_group + "' at rate " +
                    FormatDouble(result.reference_rate, 4) + "): " +
                    (result.passed ? "PASSED" : "FAILED") + "\n";
  for (const FourFifthsGroup& group : result.groups) {
    out += "  " + group.group + ": rate " +
           FormatDouble(group.selection_rate, 4) + " ratio " +
           FormatDouble(group.impact_ratio, 4);
    if (group.group != result.reference_group) {
      out += " p=" + FormatDouble(group.significance.p_value, 4);
      out += group.significance.significant ? " (significant)"
                                            : " (not significant)";
    }
    if (group.below_threshold) out += "  <-- below threshold";
    out += "\n";
  }
  if (result.adverse_impact_indicated) {
    out += "  adverse impact indicated: ratio failure with statistical "
           "significance\n";
  }
  return out;
}

}  // namespace fairlaw::legal
