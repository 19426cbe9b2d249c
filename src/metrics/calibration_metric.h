#ifndef FAIRLAW_METRICS_CALIBRATION_METRIC_H_
#define FAIRLAW_METRICS_CALIBRATION_METRIC_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "stats/mergeable.h"

namespace fairlaw::metrics {

/// Calibration within one protected group.
struct GroupCalibration {
  std::string group;
  size_t count = 0;
  double ece = 0.0;          // expected calibration error within the group
  double mean_score = 0.0;   // average predicted probability
  double positive_rate = 0.0;  // empirical base rate
};

/// Calibration-within-groups report: the paper's §V lists calibration
/// among the definitions prominent legal-algorithmic studies single out.
struct CalibrationReport {
  std::vector<GroupCalibration> groups;
  /// Largest pairwise |ECE_a - ECE_b|.
  double ece_gap = 0.0;
  /// Largest group ECE (a model can be uniformly miscalibrated with zero
  /// gap; both numbers matter).
  double max_ece = 0.0;
  double tolerance = 0.0;
  bool satisfied = false;  // max_ece <= tolerance
};

/// Audits calibration within each protected group. `series` holds one
/// (score, label) pair per row, keyed by the protected-attribute value,
/// with each group's rows in global row order (tag = label). ECE and the
/// mean-score / base-rate sums are order-sensitive floating-point folds,
/// so the chunk-order merge contract (stats::GroupedSeries) is what makes
/// a chunked audit reproduce a single-chunk one bit-for-bit. Groups are
/// reported in alphabetical order.
FAIRLAW_NODISCARD Result<CalibrationReport> CalibrationFromSeries(
    const stats::GroupedSeries& series, size_t num_bins = 10,
    double tolerance = 0.05);

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_CALIBRATION_METRIC_H_
