#include "audit/evaluate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "data/csv.h"
#include "data/schema.h"
#include "metrics/calibration_metric.h"
#include "metrics/conditional_metrics.h"
#include "metrics/fairness_metric.h"
#include "metrics/group_metrics.h"
#include "obs/obs.h"
#include "stats/distance.h"

namespace fairlaw::audit {
namespace {

/// The ascending runs runs[offsets[r], offsets[r + 1]) merged into one
/// ascending vector: a binary min-heap holds each run's next value, and
/// equal values leave the lower run first, so the result is a pure
/// function of the runs.
std::vector<double> MergeRuns(std::span<const double> runs,
                              std::span<const size_t> offsets) {
  struct Head {
    double value;
    size_t run;
  };
  // True when `a` leaves the heap after `b`.
  auto after = [](const Head& a, const Head& b) {
    return a.value > b.value || (a.value == b.value && a.run > b.run);
  };
  std::vector<size_t> next(offsets.begin(), offsets.end() - 1);
  std::vector<Head> heap;
  for (size_t r = 0; r < next.size(); ++r) {
    if (next[r] < offsets[r + 1]) heap.push_back({runs[next[r]], r});
  }
  std::make_heap(heap.begin(), heap.end(), after);
  std::vector<double> merged;
  merged.reserve(runs.size());
  while (!heap.empty()) {
    const size_t run = heap.front().run;
    merged.push_back(heap.front().value);
    if (++next[run] == offsets[run + 1]) {
      std::pop_heap(heap.begin(), heap.end(), after);
      heap.pop_back();
      continue;
    }
    // Replace the top with the run's next value and sift it down.
    const Head moving{runs[next[run]], run};
    size_t at = 0;
    for (size_t child = 1; child < heap.size(); child = 2 * at + 1) {
      if (child + 1 < heap.size() && after(heap[child], heap[child + 1])) {
        ++child;
      }
      if (!after(moving, heap[child])) break;
      heap[at] = heap[child];
      at = child;
    }
    heap[at] = moving;
  }
  return merged;
}

/// Per-group score-distribution drift: each group's sorted scores against
/// everyone else, the multiset difference of the sorted pooled scores
/// and the group's, walked in place by the presorted W1/KS kernels.
/// `series` holds each group's scores in global row order (the
/// chunk-order merge guarantees that), so each group's sort sees the
/// sequence the old whole-table pass fed it. Every row's score is in
/// exactly one group's series, so merging the sorted groups gives the
/// sorted pooled scores. The groups are checked for finiteness, sorted
/// into their slices of one buffer and then compared on the pool
/// MorselPool grants `config.num_threads` for the rows in
/// data::kDefaultChunkRows chunks; the distances fold in group order,
/// and the kernels' spans nest under `parent_path` on every thread.
Result<ScoreDistributionReport> ScoreDistributionAudit(
    const stats::GroupedSeries& series, const AuditConfig& config,
    const std::string& parent_path) {
  ScoreDistributionReport report;
  report.tolerance = config.score_distribution_tolerance;
  const size_t num_groups = series.num_keys();
  std::vector<size_t> offsets(num_groups + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    offsets[g + 1] = offsets[g] + series.slot(g).values.size();
  }
  const size_t rows = offsets.back();
  std::vector<double> by_group(rows);
  auto group_scores = [&](size_t g) {
    return std::span<double>(by_group).subspan(offsets[g],
                                               offsets[g + 1] - offsets[g]);
  };
  const std::unique_ptr<ThreadPool> pool = MorselPool(
      config.num_threads,
      (rows + data::kDefaultChunkRows - 1) / data::kDefaultChunkRows);
  auto for_each_group = [&](const std::function<void(size_t)>& fn) {
    if (pool == nullptr) {
      for (size_t g = 0; g < num_groups; ++g) fn(g);
    } else {
      pool->ParallelFor(num_groups, fn);
    }
  };

  std::vector<uint8_t> finite(num_groups, 1);
  for_each_group([&](size_t g) {
    const std::vector<double>& values = series.slot(g).values;
    const std::span<double> sorted = group_scores(g);
    for (size_t i = 0; i < values.size(); ++i) {
      if (!std::isfinite(values[i])) {
        finite[g] = 0;
        return;
      }
      sorted[i] = values[i];
    }
    std::sort(sorted.begin(), sorted.end());
  });
  if (std::find(finite.begin(), finite.end(), 0) != finite.end()) {
    return Status::Invalid("score distribution audit: non-finite score");
  }
  const std::vector<double> all_sorted = MergeRuns(by_group, offsets);
  const bool constant =
      !all_sorted.empty() && all_sorted.front() == all_sorted.back();
  // Every buffer is checked ascending once, here and per group below;
  // each group's walk of the pool then reads it unchecked.
  FAIRLAW_ASSIGN_OR_RETURN(
      const stats::AscendingSpan all,
      stats::AscendingSpan::Make(all_sorted, "score distribution pool"));

  struct Compared {
    Status status;
    GroupScoreDistance distance;
  };
  std::vector<Compared> groups(num_groups);
  auto compare = [&](size_t g) -> Status {
    const std::span<const double> sorted = group_scores(g);
    GroupScoreDistance& distance = groups[g].distance;
    distance.group = series.keys()[g];
    distance.count = sorted.size();
    FAIRLAW_ASSIGN_OR_RETURN(
        const stats::AscendingSpan group,
        stats::AscendingSpan::Make(sorted, "score distribution group"));
    const stats::SortedDifference rest(all, group);
    if (rest.size() == 0 || sorted.empty() || constant) return Status::OK();
    FAIRLAW_ASSIGN_OR_RETURN(
        const stats::SampleDistances distances,
        stats::Wasserstein1AndKsPresorted(group, rest, parent_path));
    distance.wasserstein1 = distances.wasserstein1;
    distance.ks = distances.ks;
    return Status::OK();
  };
  for_each_group([&](size_t g) { groups[g].status = compare(g); });
  for (Compared& group : groups) {
    FAIRLAW_RETURN_NOT_OK(group.status);
    report.max_wasserstein1 =
        std::max(report.max_wasserstein1, group.distance.wasserstein1);
    report.max_ks = std::max(report.max_ks, group.distance.ks);
    report.groups.push_back(std::move(group.distance));
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
        ScoreDistributionAudit(merged.score_series(), config,
                               obs::CurrentPath()));
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
