#ifndef FAIRLAW_METRICS_GROUP_METRICS_H_
#define FAIRLAW_METRICS_GROUP_METRICS_H_

#include <span>
#include <string_view>
#include <vector>

#include "metrics/fairness_metric.h"

namespace fairlaw::metrics {

// The group fairness definitions of §III of the paper, plus the standard
// companions used by US disparate-impact practice, as one table. Each
// row says which per-group rate the definition constrains, how the
// verdict is reached, and what every group must have for that rate to be
// defined. One evaluator runs any row over per-group statistics; the
// audit engine feeds it chunk-merged tallies (GroupStatsFromCounts), and
// the MetricInput adapter feeds it the statistics of a row-wise input.

/// The seven group metrics, in table (and audit report) order.
enum class MetricId {
  kDemographicParity,
  kDemographicDisparity,
  kDisparateImpactRatio,
  kEqualOpportunity,
  kEqualizedOdds,
  kPredictiveParity,
  kAccuracyEquality,
};

/// A per-group rate a definition constrains.
enum class Rate {
  kSelection,  // P(R=+ | A=a)
  kTpr,        // P(R=+ | Y=+, A=a)
  kFpr,        // P(R=+ | Y=-, A=a)
  kPpv,        // P(Y=+ | R=+, A=a)
  kAccuracy,   // P(R=Y | A=a)
};

/// How a row turns its rates into a verdict, and what the evaluator's
/// `parameter` means for it.
enum class VerdictRule {
  /// Satisfied when the largest pairwise gap of every constrained rate
  /// is <= parameter, a gap tolerance >= 0 (the paper's equalities, made
  /// testable on finite samples).
  kGapWithinTolerance,
  /// Satisfied when the smallest pairwise rate ratio is >= parameter, a
  /// threshold in (0,1] (0.8 for the EEOC four-fifths rule).
  kRatioAtLeastThreshold,
  /// Satisfied when every group's rate exceeds 1/2; max_gap carries the
  /// largest shortfall below 1/2. The parameter is ignored.
  kEveryRateAboveHalf,
};

/// What the groups must satisfy before the constrained rate is defined.
struct GroupPrecondition {
  /// Null when the rate is defined for any group.
  bool (*holds)(const GroupStats& group) = nullptr;
  /// True: every group must satisfy `holds`, and the error names the
  /// first group that does not. False: at least one group must.
  bool every_group = true;
  /// Error text after "<name>: group '<group>' " (every_group) or after
  /// "<name>: " (otherwise).
  std::string_view error;
};

/// One row of the metric table.
struct MetricSpec {
  MetricId id;
  std::string_view name;           // canonical report name
  std::string_view paper_section;  // §III anchor, e.g. "III-A"
  bool requires_labels = false;
  std::span<const Rate> rates;     // the rate or rates constrained
  VerdictRule rule = VerdictRule::kGapWithinTolerance;
  GroupPrecondition precondition;
  /// Name of the same definition applied within every stratum of a
  /// legitimate factor (conditional_metrics.h); empty when the row has
  /// no conditional form.
  std::string_view conditional_name;

  /// Gap and ratio rules compare groups, so they need at least two.
  bool compares_groups() const {
    return rule != VerdictRule::kEveryRateAboveHalf;
  }
};

/// The seven rows, indexed by MetricId:
///   demographic_parity      §III-A  selection rate, gap
///   demographic_disparity   §III-E  selection rate > 1/2 in every group
///   disparate_impact_ratio  §IV-A   selection rate, ratio
///   equal_opportunity       §III-C  TPR, gap (labels)
///   equalized_odds          §III-D  TPR and FPR, gap (labels)
///   predictive_parity       §III    PPV, gap (labels)
///   accuracy_equality       §III    accuracy, gap (labels)
std::span<const MetricSpec> MetricTable();

/// Evaluates metric `id` on per-group statistics (groups in report
/// order). `parameter` is the gap tolerance or the ratio threshold, per
/// the row's VerdictRule. A row that requires labels refuses statistics
/// computed without them.
FAIRLAW_NODISCARD Result<MetricReport> Evaluate(MetricId id,
                                                std::vector<GroupStats> stats,
                                                double parameter);

/// Row-wise adapter: validates `input` (demanding labels when the row
/// requires them), computes its group statistics and evaluates them.
FAIRLAW_NODISCARD Result<MetricReport> Evaluate(MetricId id,
                                                const MetricInput& input,
                                                double parameter);

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_GROUP_METRICS_H_
