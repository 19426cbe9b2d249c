#ifndef FAIRLAW_AUDIT_WINDOWED_H_
#define FAIRLAW_AUDIT_WINDOWED_H_

#include <cstdint>
#include <string>

#include "audit/auditor.h"
#include "base/result.h"
#include "stats/kll.h"
#include "stats/mergeable.h"

namespace fairlaw::audit {

/// What one window bucket (or a merged window) accumulates instead of
/// rows: exact tallies for every count metric, stratified tallies for
/// drill-down and the conditional metrics, and per-group KLL sketches
/// standing in for the row-ordered score series. Memory is O(groups ×
/// sketch) regardless of how many events passed through — the property
/// that lets fairlaw_serve answer over unbounded history.
struct WindowedPartial {
  WindowedPartial() = default;
  explicit WindowedPartial(const stats::KllSketch::Options& sketch_options)
      : sketches(sketch_options) {}

  stats::GroupCountsAccumulator counts;
  stats::StratifiedCountsAccumulator strata_counts;
  stats::GroupedSketches sketches;
  uint64_t num_rows = 0;

  /// Folds `other` in. Same contract as every mergeable accumulator:
  /// folding bucket partials in ascending bucket order reproduces the
  /// single sequential pass over the window's events.
  void MergeFrom(const WindowedPartial& other);
};

/// The metric rows of RunWindowedAudit alone: every count and
/// conditional metric over the window's tallies, without the sketch
/// drift step (which reads the sketches and cannot fail). Reads only
/// `counts`, `strata_counts` and `num_rows`, so the window's sketches
/// need not be folded. Invalid when the window holds no events.
FAIRLAW_NODISCARD Result<AuditResult> EvaluateWindowMetrics(
    const WindowedPartial& window, const AuditConfig& config,
    const std::string& parent_path);

/// Evaluates the audit metric suite over a merged window. The count and
/// conditional metrics are exact (integer tallies); calibration is
/// skipped (it needs row-level score/label pairs the window does not
/// retain); the score-distribution drift audit runs on the per-group
/// sketches — each group against the in-key-order merge of all other
/// groups' sketches — and is marked `approximate` in the report.
/// `config` names the logical columns ("group"/"pred"/...) only so the
/// shared evaluators know which metric families to run; no table is
/// touched.
FAIRLAW_NODISCARD Result<AuditResult> RunWindowedAudit(
    const WindowedPartial& window, const AuditConfig& config,
    const std::string& parent_path);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_WINDOWED_H_
