#include "audit/windowed.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "audit/evaluate.h"
#include "obs/obs.h"
#include "stats/kll.h"

namespace fairlaw::audit {
namespace {

/// Sketch-based drift: each group's sketch against the merge of every
/// other group's sketch, folded in first-seen key order (the windowed
/// analogue of "pooled minus this group"; sketches cannot subtract, so
/// the rest is rebuilt by merging). The rest for group g is
/// s_0..s_{g-1} then s_{g+1}..: the first part is the prefix `before`,
/// grown by one sketch per group, so each rest copies it and folds only
/// the tail. The merge sequence, and so every byte, is the same as
/// rebuilding each rest anew, in G(G-1)/2 + G-1 merges instead
/// of G(G-1).
Result<ScoreDistributionReport> SketchDriftAudit(
    const stats::GroupedSketches& sketches, const AuditConfig& config) {
  ScoreDistributionReport report;
  report.tolerance = config.score_distribution_tolerance;
  report.approximate = true;
  const size_t num_keys = sketches.num_keys();
  stats::KllSketch before = sketches.prototype();
  for (size_t g = 0; g < num_keys; ++g) {
    const stats::KllSketch& mine = sketches.sketch(g);
    stats::KllSketch rest = before;
    for (size_t j = g + 1; j < num_keys; ++j) rest.Merge(sketches.sketch(j));
    if (g + 1 < num_keys) before.Merge(mine);
    GroupScoreDistance distance;
    distance.group = sketches.keys()[g];
    distance.count = static_cast<size_t>(mine.count());
    if (!mine.empty() && !rest.empty()) {
      FAIRLAW_ASSIGN_OR_RETURN(distance.wasserstein1,
                               stats::Wasserstein1Sketch(mine, rest));
      FAIRLAW_ASSIGN_OR_RETURN(distance.ks,
                               stats::KolmogorovSmirnovSketch(mine, rest));
    }
    report.max_wasserstein1 =
        std::max(report.max_wasserstein1, distance.wasserstein1);
    report.max_ks = std::max(report.max_ks, distance.ks);
    report.groups.push_back(std::move(distance));
  }
  report.satisfied = report.max_ks <= report.tolerance;
  return report;
}

}  // namespace

void WindowedPartial::MergeFrom(const WindowedPartial& other) {
  counts.MergeFrom(other.counts);
  strata_counts.MergeFrom(other.strata_counts);
  sketches.MergeFrom(other.sketches);
  num_rows += other.num_rows;
}

Result<AuditResult> EvaluateWindowMetrics(const WindowedPartial& window,
                                          const AuditConfig& config,
                                          const std::string& parent_path) {
  if (window.num_rows == 0) {
    return Status::Invalid("windowed audit: window holds no events");
  }
  static obs::Counter* const runs = obs::GetCounter("audit.windowed_runs");
  runs->Increment();
  EvaluateInputs inputs;
  inputs.counts = &window.counts;
  inputs.strata_counts =
      window.strata_counts.num_keys() > 0 ? &window.strata_counts : nullptr;
  inputs.score_series = nullptr;  // calibration needs row-level pairs
  inputs.has_labels = !config.label_column.empty();
  return EvaluateMetrics(inputs, config, parent_path);
}

Result<AuditResult> RunWindowedAudit(const WindowedPartial& window,
                                     const AuditConfig& config,
                                     const std::string& parent_path) {
  FAIRLAW_ASSIGN_OR_RETURN(AuditResult result,
                           EvaluateWindowMetrics(window, config, parent_path));
  if (config.audit_score_distribution) {
    obs::TraceSpan span("metric/score_distribution_sketch", parent_path);
    FAIRLAW_ASSIGN_OR_RETURN(result.score_distribution,
                             SketchDriftAudit(window.sketches, config));
    result.all_satisfied =
        result.all_satisfied && result.score_distribution->satisfied;
  }
  return result;
}

}  // namespace fairlaw::audit
