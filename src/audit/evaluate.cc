#include "audit/evaluate.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "data/schema.h"
#include "metrics/calibration_metric.h"
#include "metrics/conditional_metrics.h"
#include "metrics/fairness_metric.h"
#include "metrics/group_metrics.h"
#include "obs/obs.h"
#include "stats/distance.h"

namespace fairlaw::audit {
namespace {

/// Per-group score-distribution drift: each group's sorted scores against
/// the multiset difference of the sorted pooled scores (everyone else),
/// through the presorted W1/KS kernels. `series` holds each group's
/// scores in global row order (the chunk-order merge guarantees that),
/// and `scores` is the full score column in row order, so the sorts see
/// exactly the sequences the old whole-table pass fed them.
Result<ScoreDistributionReport> ScoreDistributionAudit(
    const stats::GroupedSeries& series, std::span<const double> scores,
    const AuditConfig& config) {
  ScoreDistributionReport report;
  report.tolerance = config.score_distribution_tolerance;
  for (double s : scores) {
    if (!std::isfinite(s)) {
      return Status::Invalid("score distribution audit: non-finite score");
    }
  }
  std::vector<double> all_sorted(scores.begin(), scores.end());
  std::sort(all_sorted.begin(), all_sorted.end());
  const bool constant =
      !all_sorted.empty() && all_sorted.front() == all_sorted.back();
  for (size_t g = 0; g < series.num_keys(); ++g) {
    std::vector<double> group_scores = series.slot(g).values;
    std::sort(group_scores.begin(), group_scores.end());
    // Everyone else = pooled minus this group, linear-time multiset
    // difference over the two sorted vectors.
    std::vector<double> rest;
    rest.reserve(all_sorted.size() - group_scores.size());
    std::set_difference(all_sorted.begin(), all_sorted.end(),
                        group_scores.begin(), group_scores.end(),
                        std::back_inserter(rest));
    GroupScoreDistance distance;
    distance.group = series.keys()[g];
    distance.count = group_scores.size();
    if (!rest.empty() && !group_scores.empty() && !constant) {
      FAIRLAW_ASSIGN_OR_RETURN(
          distance.wasserstein1,
          stats::Wasserstein1Presorted(group_scores, rest));
      FAIRLAW_ASSIGN_OR_RETURN(
          distance.ks, stats::KolmogorovSmirnovPresorted(group_scores, rest));
    }
    report.max_wasserstein1 =
        std::max(report.max_wasserstein1, distance.wasserstein1);
    report.max_ks = std::max(report.max_ks, distance.ks);
    report.groups.push_back(std::move(distance));
  }
  report.satisfied = report.max_ks <= report.tolerance;
  return report;
}

/// The evaluator parameter a table row takes from the audit config: the
/// ratio threshold for ratio rules, the gap tolerance otherwise.
double ParameterFor(const metrics::MetricSpec& spec,
                    const AuditConfig& config) {
  return spec.rule == metrics::VerdictRule::kRatioAtLeastThreshold
             ? config.di_threshold
             : config.tolerance;
}

}  // namespace

Result<AuditResult> EvaluateMetrics(const EvaluateInputs& inputs,
                                    const AuditConfig& config,
                                    const std::string& parent_path) {
  const stats::GroupCountsAccumulator& counts = *inputs.counts;
  AuditResult result;
  // Table order: metric rows, then calibration, then conditional rows;
  // the first failing row's error is the audit's error.
  for (const metrics::MetricSpec& spec : metrics::MetricTable()) {
    if (spec.requires_labels && !inputs.has_labels) continue;
    obs::TraceSpan span("metric/" + std::string(spec.name), parent_path);
    FAIRLAW_ASSIGN_OR_RETURN(
        metrics::MetricReport report,
        metrics::Evaluate(
            spec.id,
            metrics::GroupStatsFromCounts(counts, spec.requires_labels),
            ParameterFor(spec, config)));
    result.all_satisfied = result.all_satisfied && report.satisfied;
    result.reports.push_back(std::move(report));
  }
  if (inputs.score_series != nullptr && !config.score_column.empty()) {
    obs::TraceSpan span("metric/calibration_within_groups", parent_path);
    FAIRLAW_ASSIGN_OR_RETURN(
        metrics::CalibrationReport calibration,
        metrics::CalibrationFromSeries(*inputs.score_series,
                                       config.calibration_bins,
                                       config.calibration_tolerance));
    result.all_satisfied = result.all_satisfied && calibration.satisfied;
    result.calibration = std::move(calibration);
  }
  if (inputs.strata_counts == nullptr ||
      inputs.strata_counts->num_keys() == 0) {
    return result;
  }
  for (const metrics::MetricSpec& spec : metrics::MetricTable()) {
    if (spec.conditional_name.empty()) continue;
    obs::TraceSpan span("metric/" + std::string(spec.conditional_name),
                        parent_path);
    FAIRLAW_ASSIGN_OR_RETURN(
        metrics::ConditionalReport report,
        metrics::EvaluateConditional(spec.id, *inputs.strata_counts,
                                     ParameterFor(spec, config),
                                     config.min_stratum_size));
    result.all_satisfied = result.all_satisfied && report.satisfied;
    result.conditional_reports.push_back(std::move(report));
  }
  return result;
}

Result<AuditResult> EvaluateMergedPartials(const MergedPartials& merged,
                                           const AuditConfig& config,
                                           const std::string& parent_path) {
  FAIRLAW_RETURN_NOT_OK(merged.FirstError());
  EvaluateInputs inputs;
  inputs.counts = &merged.counts();
  inputs.strata_counts =
      config.strata_columns.empty() ? nullptr : &merged.strata_counts();
  inputs.score_series =
      config.score_column.empty() ? nullptr : &merged.score_series();
  inputs.has_labels = !config.label_column.empty();
  FAIRLAW_ASSIGN_OR_RETURN(AuditResult result,
                           EvaluateMetrics(inputs, config, parent_path));
  if (config.audit_score_distribution) {
    obs::TraceSpan span("metric/score_distribution", parent_path);
    FAIRLAW_ASSIGN_OR_RETURN(
        result.score_distribution,
        ScoreDistributionAudit(merged.score_series(), merged.scores(),
                               config));
    result.all_satisfied =
        result.all_satisfied && result.score_distribution->satisfied;
  }
  return result;
}

Status EmptyAuditError(const data::Schema& schema,
                       const AuditConfig& config) {
  for (const std::string* column :
       {&config.protected_column, &config.prediction_column,
        &config.label_column}) {
    if (column->empty()) continue;
    FAIRLAW_RETURN_NOT_OK(schema.FieldIndex(*column).status());
  }
  return Status::Invalid("MetricInput: empty input");
}

}  // namespace fairlaw::audit
