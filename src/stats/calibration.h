#ifndef FAIRLAW_STATS_CALIBRATION_H_
#define FAIRLAW_STATS_CALIBRATION_H_

#include <span>
#include <vector>

#include "base/result.h"

namespace fairlaw::stats {

/// One bin of a reliability diagram.
struct ReliabilityBin {
  double lower = 0.0;        // score bin [lower, upper)
  double upper = 0.0;
  size_t count = 0;          // examples whose score fell in the bin
  double mean_score = 0.0;   // average predicted probability
  double positive_rate = 0.0;  // empirical P(y=1) in the bin
};

/// Bins predictions into `num_bins` equal-width score bins over [0,1] and
/// computes the empirical positive rate per bin. Scores outside [0,1] are
/// an error.
FAIRLAW_NODISCARD Result<std::vector<ReliabilityBin>> ReliabilityDiagram(
    std::span<const int> labels, std::span<const double> scores,
    size_t num_bins = 10);

/// Expected calibration error: sum over bins of
/// (bin count / n) * |mean_score - positive_rate|.
FAIRLAW_NODISCARD Result<double> ExpectedCalibrationError(std::span<const int> labels,
                                        std::span<const double> scores,
                                        size_t num_bins = 10);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_CALIBRATION_H_
