#ifndef FAIRLAW_AUDIT_AUDITOR_H_
#define FAIRLAW_AUDIT_AUDITOR_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "data/table.h"
#include "legal/report.h"
#include "metrics/calibration_metric.h"
#include "metrics/conditional_metrics.h"
#include "metrics/fairness_metric.h"

namespace fairlaw::audit {

/// Which metric families a table audit should run.
struct AuditConfig {
  /// Column holding the protected attribute A (any type; values are
  /// compared as rendered strings).
  std::string protected_column;
  /// Column holding the model decision R (int64/bool, values 0/1).
  std::string prediction_column;
  /// Column holding the actual outcome Y; empty to skip the
  /// label-dependent metrics (equal opportunity, equalized odds,
  /// predictive parity, accuracy equality).
  std::string label_column;
  /// Columns holding legitimate factors S for the conditional metrics;
  /// empty to skip them. Multiple columns stratify on their combination.
  std::vector<std::string> strata_columns;
  /// Column holding the model probability score in [0,1]; set together
  /// with label_column to add the calibration-within-groups audit (the
  /// calibration definition §V lists among the legally distinguished
  /// ones). Empty to skip.
  std::string score_column;

  /// Gap tolerance shared by the equality-style metrics.
  double tolerance = 0.05;
  /// Ratio threshold for disparate impact (EEOC four-fifths rule).
  double di_threshold = 0.8;
  /// Minimum rows per stratum for the conditional metrics.
  size_t min_stratum_size = 10;
  /// Bins and max per-group ECE for the calibration audit.
  size_t calibration_bins = 10;
  double calibration_tolerance = 0.05;
  /// Set true (together with score_column) to audit per-group score
  /// distribution drift: each group's scores against everyone else's,
  /// measured by Wasserstein-1 and Kolmogorov–Smirnov over cached sorted
  /// samples — the §IV-F distributional distances on the audit path.
  bool audit_score_distribution = false;
  /// Max per-group KS statistic for the drift audit to pass. KS is
  /// scale-free, so it gates the verdict; W1 is reported alongside.
  double score_distribution_tolerance = 0.1;
  /// Worker threads for a streamed CSV's chunk morsels (the per-chunk
  /// partial builds) and for the score-distribution audit's per-group
  /// comparisons: 1 = serial (default), 0 = one per hardware thread. A
  /// table source is still one chunk. Partials merge in chunk order,
  /// the groups' distances fold in group order and the rest of the
  /// metric evaluation is serial, so the audit output is byte-identical
  /// for every thread count.
  size_t num_threads = 1;
  /// Rows per chunk of a streamed CSV (0 = data::kDefaultChunkRows).
  /// Each chunk produces mergeable partials (integer tallies,
  /// row-ordered series) that merge in chunk order, so the audit output
  /// is byte-identical for every chunk size. A table source ignores it:
  /// the table is audited in place as one chunk.
  size_t chunk_rows = 0;

  /// Checks the configuration before any data is touched: required
  /// column names set (and no empty strata/score names), tolerance and
  /// di_threshold in range, calibration_bins > 0, score_column only
  /// alongside label_column. Auditor::Run calls this first, so a bad config
  /// fails with one config-shaped error instead of a column-lookup
  /// error half way through extraction.
  FAIRLAW_NODISCARD Status Validate() const;
};

/// Distances between one group's score distribution and the scores of
/// all other groups combined.
struct GroupScoreDistance {
  std::string group;
  size_t count = 0;
  double wasserstein1 = 0.0;
  double ks = 0.0;
};

/// Per-group score-distribution drift audit (groups in first-seen
/// order). `satisfied` holds iff max_ks <= tolerance.
struct ScoreDistributionReport {
  std::vector<GroupScoreDistance> groups;
  double max_wasserstein1 = 0.0;
  double max_ks = 0.0;
  double tolerance = 0.0;
  bool satisfied = true;
  /// True when the distances came from KLL sketches (the serve windowed
  /// path) rather than the exact row-level kernels: values carry O(1/k)
  /// rank error and must not be diffed against exact-path output.
  bool approximate = false;
};

/// Everything a table audit produced.
struct AuditResult {
  std::vector<metrics::MetricReport> reports;
  std::vector<metrics::ConditionalReport> conditional_reports;
  /// Present when a score column was configured.
  std::optional<metrics::CalibrationReport> calibration;
  /// Present when audit_score_distribution was enabled.
  std::optional<ScoreDistributionReport> score_distribution;
  bool all_satisfied = true;

  /// Renders the full audit as human-readable text.
  std::string Render() const;

  /// Looks up a report by metric name ("demographic_parity", ...).
  /// Takes a string_view so call sites with literals or substrings do
  /// not materialize a temporary std::string.
  FAIRLAW_NODISCARD Result<const metrics::MetricReport*> Find(std::string_view name) const;

  /// Copies the metric-level findings into the shape the legal layer's
  /// compliance report takes (legal depends on metrics, not on audit).
  legal::AuditFindings ToLegalFindings() const;
};

/// Extracts a MetricInput from table columns. `label_column` may be empty.
FAIRLAW_NODISCARD Result<metrics::MetricInput> MetricInputFromTable(
    const data::Table& table, const std::string& protected_column,
    const std::string& prediction_column, const std::string& label_column);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_AUDITOR_H_
