#ifndef FAIRLAW_AUDIT_SAMPLING_ADEQUACY_H_
#define FAIRLAW_AUDIT_SAMPLING_ADEQUACY_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "metrics/fairness_metric.h"

namespace fairlaw::audit {

// Sampling-requirements audit (§IV-F): before trusting a per-group or
// per-subgroup rate estimate, check that the group carries enough samples
// for the estimate's confidence interval to be informative.

/// Per-group support assessment.
struct GroupSupport {
  std::string group;
  size_t count = 0;
  double share = 0.0;           // count / n
  double selection_rate = 0.0;
  /// Normal-approximation CI half-width of the selection rate at the
  /// configured confidence level.
  double ci_halfwidth = 0.0;
  bool adequate = false;
};

struct SamplingAdequacyOptions {
  /// Minimum group size for an estimate to count as adequate.
  size_t min_count = 30;
  /// Maximum acceptable CI half-width.
  double max_ci_halfwidth = 0.1;
  /// Two-sided confidence level for the interval (e.g. 0.95).
  double confidence = 0.95;
};

struct SamplingReport {
  std::vector<GroupSupport> groups;
  bool all_adequate = true;
  std::string detail;
};

/// Assesses sample support for every group in `stats` (report order; only
/// count and selection_rate are read). A group's share is its count over
/// the sum of the counts.
FAIRLAW_NODISCARD Result<SamplingReport> AssessSamplingAdequacy(
    const std::vector<metrics::GroupStats>& stats,
    const SamplingAdequacyOptions& options = {});

/// Row-wise adapter: computes the group statistics of `input`, then
/// assesses them.
FAIRLAW_NODISCARD Result<SamplingReport> AssessSamplingAdequacy(
    const metrics::MetricInput& input,
    const SamplingAdequacyOptions& options = {});

/// Sample size needed for a selection-rate CI of half-width `halfwidth`
/// at the given confidence when the underlying rate is `rate` (worst case
/// rate=0.5 if unknown). No tool calls it yet: it is kept for the
/// "insufficient evidence" verdict of the ROADMAP *Verdicts* item.
// deps: allow-unreached-function (ROADMAP *Verdicts*)
FAIRLAW_NODISCARD Result<size_t> RequiredSampleSize(double rate, double halfwidth,
                                  double confidence);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_SAMPLING_ADEQUACY_H_
