#include "audit/evaluate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "base/thread_pool.h"
#include "data/table.h"
#include "metrics/calibration_metric.h"
#include "metrics/conditional_metrics.h"
#include "metrics/fairness_metric.h"
#include "metrics/group_metrics.h"
#include "obs/obs.h"
#include "stats/distance.h"
#include "stats/histogram.h"

namespace fairlaw::audit {
namespace {

/// Per-group score-distribution drift: each group's sorted scores against
/// the multiset difference of the sorted pooled scores (everyone else),
/// through the presorted W1/KS kernels — or the binned kernels when the
/// config asks for the O(n) fast path. Runs serially after the metric
/// jobs, so thread count cannot touch the result. `series` holds each
/// group's scores in global row order (the chunk-order merge guarantees
/// that), and `scores` is the full score column in row order, so the
/// sorts see exactly the sequences the old whole-table pass fed them.
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
    std::vector<double> group_scores = series.values(g);
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
      if (config.score_distribution_bins > 0) {
        FAIRLAW_ASSIGN_OR_RETURN(
            stats::Histogram hp,
            stats::Histogram::Make(all_sorted.front(), all_sorted.back(),
                                   config.score_distribution_bins));
        FAIRLAW_ASSIGN_OR_RETURN(
            stats::Histogram hq,
            stats::Histogram::Make(all_sorted.front(), all_sorted.back(),
                                   config.score_distribution_bins));
        hp.AddAll(group_scores);
        hq.AddAll(rest);
        FAIRLAW_ASSIGN_OR_RETURN(distance.wasserstein1,
                                 stats::Wasserstein1Binned(hp, hq));
        FAIRLAW_ASSIGN_OR_RETURN(distance.ks,
                                 stats::KolmogorovSmirnovBinned(hp, hq));
      } else {
        FAIRLAW_ASSIGN_OR_RETURN(
            distance.wasserstein1,
            stats::Wasserstein1Presorted(group_scores, rest));
        FAIRLAW_ASSIGN_OR_RETURN(
            distance.ks,
            stats::KolmogorovSmirnovPresorted(group_scores, rest));
      }
    }
    report.max_wasserstein1 =
        std::max(report.max_wasserstein1, distance.wasserstein1);
    report.max_ks = std::max(report.max_ks, distance.ks);
    report.groups.push_back(std::move(distance));
  }
  report.satisfied = report.max_ks <= report.tolerance;
  return report;
}

/// Collects metric results completed on worker threads. Each result
/// carries the sequence number of its job in the canonical (serial)
/// evaluation order, so Finish() can assemble an AuditResult that is
/// byte-identical for any thread count — including which error wins when
/// several metrics fail at once.
class ResultAggregator {
 public:
  void AddMetric(size_t seq, Result<metrics::MetricReport> report)
      FAIRLAW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    metric_reports_.emplace_back(seq, std::move(report));
  }

  void AddConditional(size_t seq, Result<metrics::ConditionalReport> report)
      FAIRLAW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    conditional_reports_.emplace_back(seq, std::move(report));
  }

  void AddCalibration(size_t seq, Result<metrics::CalibrationReport> report)
      FAIRLAW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    calibration_.emplace(seq, std::move(report));
  }

  /// Deterministic assembly; call only after every job has completed.
  Result<AuditResult> Finish() FAIRLAW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto by_seq = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::sort(metric_reports_.begin(), metric_reports_.end(), by_seq);
    std::sort(conditional_reports_.begin(), conditional_reports_.end(),
              by_seq);

    // Serial evaluation returns the error of the first failing job; keep
    // that contract by picking the non-OK status with the lowest seq.
    size_t first_error_seq = SIZE_MAX;
    const Status* first_error = nullptr;
    auto consider = [&](size_t seq, const Status& status) {
      if (!status.ok() && seq < first_error_seq) {
        first_error_seq = seq;
        first_error = &status;
      }
    };
    for (const auto& [seq, report] : metric_reports_) {
      consider(seq, report.status());
    }
    if (calibration_.has_value()) {
      consider(calibration_->first, calibration_->second.status());
    }
    for (const auto& [seq, report] : conditional_reports_) {
      consider(seq, report.status());
    }
    if (first_error != nullptr) return *first_error;

    AuditResult result;
    for (auto& [seq, report] : metric_reports_) {
      metrics::MetricReport r = std::move(report).ValueOrDie();
      result.all_satisfied = result.all_satisfied && r.satisfied;
      result.reports.push_back(std::move(r));
    }
    if (calibration_.has_value()) {
      metrics::CalibrationReport calibration =
          std::move(calibration_->second).ValueOrDie();
      result.all_satisfied = result.all_satisfied && calibration.satisfied;
      result.calibration = std::move(calibration);
    }
    for (auto& [seq, report] : conditional_reports_) {
      metrics::ConditionalReport r = std::move(report).ValueOrDie();
      result.all_satisfied = result.all_satisfied && r.satisfied;
      result.conditional_reports.push_back(std::move(r));
    }
    return result;
  }

 private:
  Mutex mu_;
  std::vector<std::pair<size_t, Result<metrics::MetricReport>>>
      metric_reports_ FAIRLAW_GUARDED_BY(mu_);
  std::vector<std::pair<size_t, Result<metrics::ConditionalReport>>>
      conditional_reports_ FAIRLAW_GUARDED_BY(mu_);
  std::optional<std::pair<size_t, Result<metrics::CalibrationReport>>>
      calibration_ FAIRLAW_GUARDED_BY(mu_);
};

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
  const bool with_strata = inputs.strata_counts != nullptr &&
                           inputs.strata_counts->num_strata() > 0;

  ResultAggregator aggregator;
  std::vector<std::function<void()>> jobs;
  size_t seq = 0;
  auto add_metric =
      [&](std::string_view name,
          std::function<Result<metrics::MetricReport>()> compute) {
        jobs.push_back([&aggregator, &parent_path, seq,
                        name = "metric/" + std::string(name),
                        compute = std::move(compute)] {
          obs::TraceSpan span(name, parent_path);
          aggregator.AddMetric(seq, compute());
        });
        ++seq;
      };

  for (const metrics::MetricSpec& spec : metrics::MetricTable()) {
    if (spec.requires_labels && !inputs.has_labels) continue;
    add_metric(spec.name, [&counts, &config, &spec] {
      return metrics::Evaluate(
          spec.id, metrics::GroupStatsFromCounts(counts, spec.requires_labels),
          ParameterFor(spec, config));
    });
  }
  if (inputs.score_series != nullptr && !config.score_column.empty()) {
    jobs.push_back([&aggregator, &parent_path, seq, &inputs, &config] {
      obs::TraceSpan span("metric/calibration_within_groups", parent_path);
      aggregator.AddCalibration(
          seq, metrics::CalibrationFromSeries(*inputs.score_series,
                                              config.calibration_bins,
                                              config.calibration_tolerance));
    });
    ++seq;
  }
  if (with_strata) {
    auto add_conditional =
        [&](std::string_view name,
            std::function<Result<metrics::ConditionalReport>()> compute) {
          jobs.push_back([&aggregator, &parent_path, seq,
                          name = "metric/" + std::string(name),
                          compute = std::move(compute)] {
            obs::TraceSpan span(name, parent_path);
            aggregator.AddConditional(seq, compute());
          });
          ++seq;
        };
    for (const metrics::MetricSpec& spec : metrics::MetricTable()) {
      if (spec.conditional_name.empty()) continue;
      add_conditional(spec.conditional_name, [&inputs, &config, &spec] {
        return metrics::EvaluateConditional(spec.id, *inputs.strata_counts,
                                            ParameterFor(spec, config),
                                            config.min_stratum_size);
      });
    }
  }

  if (config.num_threads == 1) {
    for (const std::function<void()>& job : jobs) job();
  } else {
    // num_threads == 0 sizes the pool to the hardware; otherwise never
    // spawn more workers than there are jobs.
    ThreadPool pool(config.num_threads == 0
                        ? 0
                        : std::min(config.num_threads, jobs.size()));
    pool.ParallelFor(jobs.size(), [&jobs](size_t i) { jobs[i](); });
  }
  return aggregator.Finish();
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

Status EmptyAuditError(const data::Table& empty, const AuditConfig& config) {
  Status probe = MetricInputFromTable(empty, config.protected_column,
                                      config.prediction_column,
                                      config.label_column)
                     .status();
  if (!probe.ok()) return probe;
  return Status::Invalid("MetricInput: empty input");
}

}  // namespace fairlaw::audit
