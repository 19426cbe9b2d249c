#ifndef FAIRLAW_AUDIT_EVALUATE_H_
#define FAIRLAW_AUDIT_EVALUATE_H_

#include <string>

#include "audit/auditor.h"
#include "audit/partials.h"
#include "base/result.h"
#include "data/table.h"
#include "stats/mergeable.h"

namespace fairlaw::audit {

/// Inputs to the shared metric-evaluation phase. The chunked engines
/// pass everything; the windowed (serve) path passes exact tallies plus
/// a null score_series — calibration needs row-level (score, label)
/// pairs that window buckets deliberately do not retain, so it is
/// skipped there and the drift audit runs on sketches instead (see
/// windowed.h).
struct EvaluateInputs {
  const stats::GroupCountsAccumulator* counts = nullptr;
  /// Null or empty to skip the conditional metrics.
  const stats::StratifiedCountsAccumulator* strata_counts = nullptr;
  /// Null to skip calibration (windowed path).
  const stats::GroupedSeries* score_series = nullptr;
  bool has_labels = false;
};

/// Evaluates every metric row over merged exact tallies in table order:
/// the metric rows, then calibration, then the conditional rows. Each
/// row runs under a `metric/<name>` span beneath `parent_path`; the
/// first failing row's error is returned. Shared by the morsel engine
/// and the serve window evaluator.
FAIRLAW_NODISCARD Result<AuditResult> EvaluateMetrics(
    const EvaluateInputs& inputs, const AuditConfig& config,
    const std::string& parent_path);

/// The full evaluation phase for the row-level engines: EvaluateMetrics
/// plus the exact score-distribution drift audit over the merged
/// row-ordered series.
FAIRLAW_NODISCARD Result<AuditResult> EvaluateMergedPartials(
    const MergedPartials& merged, const AuditConfig& config,
    const std::string& parent_path);

/// Reproduces the serial pass's error on a zero-row audit: a missing
/// column still reports the lookup failure, existing columns the
/// empty-input error.
FAIRLAW_NODISCARD Status EmptyAuditError(const data::Table& empty,
                                         const AuditConfig& config);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_EVALUATE_H_
