#ifndef FAIRLAW_METRICS_CONDITIONAL_METRICS_H_
#define FAIRLAW_METRICS_CONDITIONAL_METRICS_H_

#include <string>
#include <vector>

#include "metrics/fairness_metric.h"
#include "metrics/group_metrics.h"
#include "stats/mergeable.h"

namespace fairlaw::metrics {

/// Per-stratum slice of a conditional metric report.
struct StratumReport {
  std::string stratum;  // value of the legitimate factor S
  MetricReport report;  // the unconditional metric within the stratum
};

/// Result of a conditional (stratified) fairness definition.
struct ConditionalReport {
  std::string metric_name;
  std::vector<StratumReport> strata;
  /// Worst stratum gap; the verdict aggregates across strata.
  double max_gap = 0.0;
  double tolerance = 0.0;
  bool satisfied = false;
  std::string detail;
};

/// A group metric applied within every stratum of a legitimate factor
/// S. The demographic_parity row gives §III-B conditional statistical
/// parity; the demographic_disparity row gives §III-F conditional
/// demographic disparity; rows with an empty conditional_name are
/// refused. `counts` holds per-stratum, per-group tallies merged in chunk
/// order (strata and groups both in global first-seen row order).
/// `parameter` means what it means for the inner row. Strata with fewer
/// than `min_stratum_size` rows, or a single group when the inner metric
/// compares groups, are skipped (reported in detail) rather than failing
/// the whole audit — tiny strata say nothing reliable (§IV-F).
FAIRLAW_NODISCARD Result<ConditionalReport> EvaluateConditional(
    MetricId inner, const stats::StratifiedCountsAccumulator& counts,
    double parameter, size_t min_stratum_size);

/// Row-wise adapter: `strata[i]` is the S-value of row i. Validates
/// `input`, tallies its rows by stratum and group, and evaluates them.
FAIRLAW_NODISCARD Result<ConditionalReport> EvaluateConditional(
    MetricId inner, const MetricInput& input,
    const std::vector<std::string>& strata, double parameter,
    size_t min_stratum_size);

/// Renders a ConditionalReport as a human-readable block.
std::string RenderConditionalReport(const ConditionalReport& report);

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_CONDITIONAL_METRICS_H_
