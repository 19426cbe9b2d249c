#include "metrics/fairness_metric.h"

#include <algorithm>
#include <variant>

#include "base/string_util.h"

namespace fairlaw::metrics {

Status MetricInput::Validate(bool require_labels) const {
  if (groups.empty()) return Status::Invalid("MetricInput: empty input");
  if (predictions.size() != groups.size()) {
    return Status::Invalid("MetricInput: predictions/groups size mismatch");
  }
  for (int p : predictions) {
    if (p != 0 && p != 1) {
      return Status::Invalid("MetricInput: predictions must be 0/1");
    }
  }
  if (require_labels) {
    if (labels.size() != groups.size()) {
      return Status::Invalid("MetricInput: this metric requires labels for "
                             "every row");
    }
  }
  if (!labels.empty()) {
    if (labels.size() != groups.size()) {
      return Status::Invalid("MetricInput: labels/groups size mismatch");
    }
    for (int y : labels) {
      if (y != 0 && y != 1) {
        return Status::Invalid("MetricInput: labels must be 0/1");
      }
    }
  }
  return Status::OK();
}

std::vector<stats::GroupCounts> TallyCodes(std::span<const uint32_t> codes,
                                           size_t arity,
                                           std::span<const int> predictions,
                                           std::span<const int> labels) {
  std::vector<stats::GroupCounts> tallies(arity);
  const bool has_labels = !labels.empty();
  for (size_t i = 0; i < codes.size(); ++i) {
    tallies[codes[i]] += stats::GroupCounts::Row(
        predictions[i], has_labels ? labels[i] : 0);
  }
  return tallies;
}

void TallyRows(std::span<const uint32_t> codes,
               const std::vector<std::string>& keys,
               std::span<const int> predictions, std::span<const int> labels,
               stats::GroupCountsAccumulator* accumulator) {
  const std::vector<stats::GroupCounts> tallies =
      TallyCodes(codes, keys.size(), predictions, labels);
  for (size_t k = 0; k < keys.size(); ++k) {
    (*accumulator)[keys[k]] += tallies[k];
  }
}

Result<std::vector<GroupStats>> ComputeGroupStats(const MetricInput& input,
                                                  bool with_labels) {
  FAIRLAW_RETURN_NOT_OK(input.Validate(with_labels));
  // The whole-table pass is the one-chunk case of the morsel path: code
  // the groups, tally the rows, then derive rates from the integer
  // tallies. Sharing these steps with the chunked engine is what makes
  // the byte-identity contract structural rather than coincidental.
  stats::FirstSeenMap<std::monostate> keys;
  std::vector<uint32_t> codes(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    codes[i] = static_cast<uint32_t>(keys.KeyIndex(input.groups[i]));
  }
  stats::GroupCountsAccumulator accumulator;
  TallyRows(codes, keys.keys(), input.predictions, input.labels,
            &accumulator);
  return GroupStatsFromCounts(accumulator, with_labels);
}

std::vector<GroupStats> GroupStatsFromCounts(
    const stats::GroupCountsAccumulator& counts, bool with_labels) {
  std::vector<GroupStats> stats;
  stats.reserve(counts.num_keys());
  for (size_t g = 0; g < counts.num_keys(); ++g) {
    const stats::GroupCounts& tally = counts.slot(g);
    GroupStats gs;
    gs.group = counts.keys()[g];
    gs.count = tally.count;
    gs.positive_predictions = tally.positive_predictions;
    if (with_labels) {
      gs.actual_positives = tally.actual_positives;
      gs.actual_negatives = gs.count - gs.actual_positives;
      gs.true_positives = tally.true_positives;
      gs.false_positives = gs.positive_predictions - gs.true_positives;
    }
    stats.push_back(std::move(gs));
  }
  for (GroupStats& gs : stats) {
    gs.selection_rate = gs.count > 0 ? static_cast<double>(
                                           gs.positive_predictions) /
                                           static_cast<double>(gs.count)
                                     : 0.0;
    if (with_labels) {
      gs.tpr = gs.actual_positives > 0
                   ? static_cast<double>(gs.true_positives) /
                         static_cast<double>(gs.actual_positives)
                   : 0.0;
      gs.fpr = gs.actual_negatives > 0
                   ? static_cast<double>(gs.false_positives) /
                         static_cast<double>(gs.actual_negatives)
                   : 0.0;
      gs.ppv = gs.positive_predictions > 0
                   ? static_cast<double>(gs.true_positives) /
                         static_cast<double>(gs.positive_predictions)
                   : 0.0;
    }
  }
  return stats;
}

double MaxGap(const std::vector<double>& rates) {
  if (rates.size() < 2) return 0.0;
  auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
  return *hi - *lo;
}

double MinRatio(const std::vector<double>& rates) {
  if (rates.size() < 2) return 1.0;
  auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
  if (*hi == 0.0) return 1.0;  // all rates zero: no disparity
  return *lo / *hi;
}

std::string RenderReport(const MetricReport& report) {
  std::string out = report.metric_name + ": " +
                    (report.satisfied ? "SATISFIED" : "VIOLATED") +
                    " (max gap " + FormatDouble(report.max_gap, 4) +
                    ", tolerance " + FormatDouble(report.tolerance, 4) +
                    ", min ratio " + FormatDouble(report.min_ratio, 4) + ")\n";
  for (const GroupStats& gs : report.groups) {
    out += "  " + gs.group + ": n=" + std::to_string(gs.count) +
           " selection_rate=" + FormatDouble(gs.selection_rate, 4);
    if (gs.actual_positives + gs.actual_negatives > 0) {
      out += " tpr=" + FormatDouble(gs.tpr, 4) +
             " fpr=" + FormatDouble(gs.fpr, 4) +
             " ppv=" + FormatDouble(gs.ppv, 4);
    }
    out += "\n";
  }
  if (!report.detail.empty()) out += "  " + report.detail + "\n";
  return out;
}

}  // namespace fairlaw::metrics
