#ifndef FAIRLAW_LEGAL_FOUR_FIFTHS_H_
#define FAIRLAW_LEGAL_FOUR_FIFTHS_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "metrics/fairness_metric.h"
#include "stats/hypothesis.h"

namespace fairlaw::legal {

// The EEOC four-fifths (80%) rule — the operational US disparate-impact
// screen: a selection rate for any protected group below 4/5 of the rate
// of the group with the highest rate is evidence of adverse impact. The
// implementation pairs the ratio test with a two-proportion z-test per
// group, because courts weigh statistical significance alongside the
// bare ratio.

/// Ratio and significance for one group vs the reference group.
struct FourFifthsGroup {
  std::string group;
  int64_t count = 0;
  int64_t selected = 0;
  double selection_rate = 0.0;
  /// selection_rate / reference rate.
  double impact_ratio = 1.0;
  bool below_threshold = false;
  /// Two-proportion z-test of this group's rate vs the reference group's.
  stats::TestResult significance;
};

struct FourFifthsResult {
  /// Group with the highest selection rate (the comparison baseline).
  std::string reference_group;
  double reference_rate = 0.0;
  std::vector<FourFifthsGroup> groups;
  double threshold = 0.8;
  /// True when no group falls below the threshold.
  bool passed = true;
  /// True when some group both fails the ratio and differs significantly.
  bool adverse_impact_indicated = false;
  std::string detail;
};

/// Runs the four-fifths screen over per-group statistics (groups in
/// report order; only count, positive_predictions and selection_rate are
/// read), e.g. the `groups` of an audit's disparate_impact_ratio report.
FAIRLAW_NODISCARD Result<FourFifthsResult> FourFifthsTest(
    const std::vector<metrics::GroupStats>& stats, double threshold = 0.8,
    double alpha = 0.05);

/// Row-wise adapter: computes the group statistics of `input` (labels not
/// required), then screens them.
FAIRLAW_NODISCARD Result<FourFifthsResult> FourFifthsTest(
    const metrics::MetricInput& input, double threshold = 0.8,
    double alpha = 0.05);

/// Renders the screen as human-readable text.
std::string RenderFourFifths(const FourFifthsResult& result);

}  // namespace fairlaw::legal

#endif  // FAIRLAW_LEGAL_FOUR_FIFTHS_H_
