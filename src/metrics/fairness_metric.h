#ifndef FAIRLAW_METRICS_FAIRNESS_METRIC_H_
#define FAIRLAW_METRICS_FAIRNESS_METRIC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/result.h"  // IWYU pragma: export
#include "stats/mergeable.h"

namespace fairlaw::metrics {

/// Per-group outcome statistics for one value of the protected attribute.
struct GroupStats {
  std::string group;                // protected-attribute value, e.g. "female"
  int64_t count = 0;                // group size
  int64_t positive_predictions = 0;  // predictions == 1 (R = +)
  double selection_rate = 0.0;      // P(R=+ | A=a)

  // Populated only when ground-truth labels were supplied:
  int64_t actual_positives = 0;  // Y = +
  int64_t actual_negatives = 0;  // Y = -
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  double tpr = 0.0;  // P(R=+ | Y=+, A=a); 0 when no actual positives
  double fpr = 0.0;  // P(R=+ | Y=-, A=a); 0 when no actual negatives
  double ppv = 0.0;  // P(Y=+ | R=+, A=a); 0 when no positive predictions
};

/// Input to the group fairness metrics: one row per audited individual.
///
/// `groups[i]` is the protected-attribute value of individual i (§III's A),
/// `predictions[i]` the classifier output R in {0,1} with 1 = the
/// favorable outcome, and `labels[i]` the actual outcome Y in {0,1}.
/// Labels may be empty for metrics that only look at predicted outcomes
/// (demographic parity, demographic disparity).
struct MetricInput {
  std::vector<std::string> groups;
  std::vector<int> predictions;
  std::vector<int> labels;

  size_t size() const { return groups.size(); }

  /// Structural validation; `require_labels` additionally demands a full
  /// label vector.
  FAIRLAW_NODISCARD Status Validate(bool require_labels) const;
};

/// Result of evaluating one fairness definition.
struct MetricReport {
  std::string metric_name;
  std::vector<GroupStats> groups;
  /// Largest absolute pairwise difference of the rate the definition
  /// constrains (selection rate, TPR, ...).
  double max_gap = 0.0;
  /// Smallest pairwise ratio of that rate (used by the four-fifths rule);
  /// 1.0 when all rates are equal; 0 when some group has rate 0 while
  /// another does not.
  double min_ratio = 1.0;
  /// Parameter the verdict used: the gap tolerance, or the ratio
  /// threshold for a ratio rule (see metrics::VerdictRule).
  double tolerance = 0.0;
  /// The verdict under the metric's rule.
  bool satisfied = false;
  /// Human-readable summary (one line per group plus the verdict).
  std::string detail;
};

/// Adds row i as one GroupCounts::Row(predictions[i], labels[i]) to the
/// tally of code codes[i] (< arity); an empty `labels` passes 0, so the
/// label tallies stay zero. The one row loop of every audit tally.
std::vector<stats::GroupCounts> TallyCodes(std::span<const uint32_t> codes,
                                           size_t arity,
                                           std::span<const int> predictions,
                                           std::span<const int> labels);

/// Tallies the rows by code (TallyCodes), then folds each code's tally
/// into `accumulator` under keys[code], one lookup per key. `keys` must
/// be distinct and in first-seen row order of their codes, so groups
/// keep first-seen row order. The fold behind ComputeGroupStats and the
/// audit engine's per-chunk tally: merge the per-chunk accumulators in
/// chunk order and the result feeds GroupStatsFromCounts.
void TallyRows(std::span<const uint32_t> codes,
               const std::vector<std::string>& keys,
               std::span<const int> predictions, std::span<const int> labels,
               stats::GroupCountsAccumulator* accumulator);

/// Computes per-group statistics: validates `input`, tallies its rows
/// and derives the rates from the tallies. `with_labels` toggles the
/// Y-conditional fields; when true the input must carry labels.
FAIRLAW_NODISCARD Result<std::vector<GroupStats>> ComputeGroupStats(
    const MetricInput& input, bool with_labels);

/// Derives GroupStats from chunk-merged integer tallies. Given an
/// accumulator whose partials were merged in chunk order, this returns
/// exactly what ComputeGroupStats would have on the concatenated input:
/// the rates are computed from the merged int64 counts by the same
/// divisions, so the doubles are bit-identical. `with_labels` toggles
/// the Y-conditional fields (the label tallies are ignored when false).
std::vector<GroupStats> GroupStatsFromCounts(
    const stats::GroupCountsAccumulator& counts, bool with_labels);

/// Max absolute pairwise gap of the selected per-group rates.
double MaxGap(const std::vector<double>& rates);

/// Min pairwise ratio of the selected per-group rates (see
/// MetricReport::min_ratio).
double MinRatio(const std::vector<double>& rates);

/// Renders a MetricReport as a short human-readable block.
std::string RenderReport(const MetricReport& report);

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_FAIRNESS_METRIC_H_
