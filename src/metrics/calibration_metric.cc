#include "metrics/calibration_metric.h"

#include <algorithm>
#include <numeric>

#include "stats/calibration.h"

namespace fairlaw::metrics {

Result<CalibrationReport> CalibrationFromSeries(
    const stats::GroupedSeries& series, size_t num_bins, double tolerance) {
  if (series.num_keys() == 0) {
    return Status::Invalid("CalibrationWithinGroups: empty input");
  }
  if (tolerance < 0.0) {
    return Status::Invalid("CalibrationWithinGroups: tolerance must be >= 0");
  }

  // The series keys groups in first-seen row order; the report lists them
  // alphabetically.
  std::vector<size_t> order(series.num_keys());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return series.keys()[a] < series.keys()[b];
  });

  CalibrationReport report;
  report.tolerance = tolerance;
  for (size_t key : order) {
    const std::vector<double>& group_scores = series.slot(key).values;
    const std::vector<uint8_t>& group_tags = series.slot(key).tags;
    std::vector<int> group_labels(group_tags.begin(), group_tags.end());
    GroupCalibration gc;
    gc.group = series.keys()[key];
    gc.count = group_scores.size();
    FAIRLAW_ASSIGN_OR_RETURN(
        gc.ece,
        stats::ExpectedCalibrationError(group_labels, group_scores,
                                        num_bins));
    double score_sum = 0.0;
    double positives = 0.0;
    for (size_t k = 0; k < group_scores.size(); ++k) {
      score_sum += group_scores[k];
      positives += group_labels[k];
    }
    gc.mean_score = score_sum / static_cast<double>(group_scores.size());
    gc.positive_rate = positives / static_cast<double>(group_scores.size());
    report.groups.push_back(std::move(gc));
  }

  double min_ece = report.groups[0].ece;
  double max_ece = report.groups[0].ece;
  for (const GroupCalibration& gc : report.groups) {
    min_ece = std::min(min_ece, gc.ece);
    max_ece = std::max(max_ece, gc.ece);
  }
  report.ece_gap = max_ece - min_ece;
  report.max_ece = max_ece;
  report.satisfied = report.max_ece <= tolerance;
  return report;
}

}  // namespace fairlaw::metrics
