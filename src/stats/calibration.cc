#include "stats/calibration.h"

#include <algorithm>
#include <cmath>

namespace fairlaw::stats {
namespace {

Status CheckInputs(std::span<const int> labels,
                   std::span<const double> scores) {
  if (labels.size() != scores.size()) {
    return Status::Invalid("calibration: size mismatch");
  }
  if (labels.empty()) return Status::Invalid("calibration: empty input");
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] != 0 && labels[i] != 1) {
      return Status::Invalid("calibration: labels must be 0/1");
    }
    if (scores[i] < 0.0 || scores[i] > 1.0 || !std::isfinite(scores[i])) {
      return Status::Invalid("calibration: scores must lie in [0,1]");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<ReliabilityBin>> ReliabilityDiagram(
    std::span<const int> labels, std::span<const double> scores,
    size_t num_bins) {
  FAIRLAW_RETURN_NOT_OK(CheckInputs(labels, scores));
  if (num_bins == 0) {
    return Status::Invalid("ReliabilityDiagram: num_bins must be >= 1");
  }
  std::vector<ReliabilityBin> bins(num_bins);
  std::vector<double> score_sum(num_bins, 0.0);
  std::vector<size_t> positives(num_bins, 0);
  for (size_t b = 0; b < num_bins; ++b) {
    bins[b].lower = static_cast<double>(b) / static_cast<double>(num_bins);
    bins[b].upper =
        static_cast<double>(b + 1) / static_cast<double>(num_bins);
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    size_t b = std::min(
        static_cast<size_t>(scores[i] * static_cast<double>(num_bins)),
        num_bins - 1);
    ++bins[b].count;
    score_sum[b] += scores[i];
    positives[b] += labels[i] == 1 ? 1 : 0;
  }
  for (size_t b = 0; b < num_bins; ++b) {
    if (bins[b].count > 0) {
      bins[b].mean_score = score_sum[b] / static_cast<double>(bins[b].count);
      bins[b].positive_rate = static_cast<double>(positives[b]) /
                              static_cast<double>(bins[b].count);
    }
  }
  return bins;
}

Result<double> ExpectedCalibrationError(std::span<const int> labels,
                                        std::span<const double> scores,
                                        size_t num_bins) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<ReliabilityBin> bins,
                           ReliabilityDiagram(labels, scores, num_bins));
  double ece = 0.0;
  const double n = static_cast<double>(labels.size());
  for (const ReliabilityBin& bin : bins) {
    if (bin.count == 0) continue;
    ece += static_cast<double>(bin.count) / n *
           std::fabs(bin.mean_score - bin.positive_rate);
  }
  return ece;
}

}  // namespace fairlaw::stats
