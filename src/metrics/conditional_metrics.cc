#include "metrics/conditional_metrics.h"

#include <algorithm>

#include "base/string_util.h"

namespace fairlaw::metrics {

Result<ConditionalReport> EvaluateConditional(
    MetricId inner, const stats::StratifiedCountsAccumulator& counts,
    double parameter, size_t min_stratum_size) {
  const MetricSpec& spec = MetricTable()[static_cast<size_t>(inner)];
  if (spec.conditional_name.empty()) {
    return Status::Invalid(std::string(spec.name) +
                           ": has no conditional form");
  }
  ConditionalReport report;
  report.metric_name = std::string(spec.conditional_name);
  report.satisfied = true;
  std::string skipped;
  for (size_t s = 0; s < counts.num_keys(); ++s) {
    const std::string& stratum = counts.keys()[s];
    const stats::GroupCountsAccumulator& tallies = counts.stratum(s);
    int64_t stratum_rows = 0;
    for (size_t g = 0; g < tallies.num_keys(); ++g) {
      stratum_rows += tallies.slot(g).count;
    }
    if (static_cast<size_t>(stratum_rows) < min_stratum_size ||
        (spec.compares_groups() && tallies.num_keys() < 2)) {
      if (!skipped.empty()) skipped += ", ";
      skipped += stratum;
      continue;
    }
    // Stratum tallies carry no labels, so Evaluate refuses a row that
    // requires them.
    FAIRLAW_ASSIGN_OR_RETURN(
        MetricReport stratum_report,
        Evaluate(inner, GroupStatsFromCounts(tallies, /*with_labels=*/false),
                 parameter));
    stratum_report.metric_name =
        std::string(spec.name) + "[" + stratum + "]";
    report.max_gap = std::max(report.max_gap, stratum_report.max_gap);
    report.satisfied = report.satisfied && stratum_report.satisfied;
    report.strata.push_back(StratumReport{stratum, std::move(stratum_report)});
  }
  if (report.strata.empty()) {
    return Status::Invalid(report.metric_name +
                           ": no stratum was large enough to evaluate");
  }
  // The inner row's reported parameter: the tolerance for a gap rule, 0
  // for the every-rate-above-half rule.
  report.tolerance = report.strata.front().report.tolerance;
  if (!skipped.empty()) {
    report.detail = std::string(spec.compares_groups()
                                    ? "skipped strata (too small or "
                                      "single-group): "
                                    : "skipped strata: ") +
                    skipped;
  }
  return report;
}

Result<ConditionalReport> EvaluateConditional(
    MetricId inner, const MetricInput& input,
    const std::vector<std::string>& strata, double parameter,
    size_t min_stratum_size) {
  FAIRLAW_RETURN_NOT_OK(input.Validate(/*require_labels=*/false));
  if (strata.size() != input.size()) {
    return Status::Invalid("conditional metric: strata/input size mismatch");
  }
  stats::StratifiedCountsAccumulator counts;
  for (size_t i = 0; i < strata.size(); ++i) {
    counts[strata[i]][input.groups[i]] +=
        stats::GroupCounts::Row(input.predictions[i]);
  }
  return EvaluateConditional(inner, counts, parameter, min_stratum_size);
}

std::string RenderConditionalReport(const ConditionalReport& report) {
  std::string out = report.metric_name + ": " +
                    (report.satisfied ? "SATISFIED" : "VIOLATED") +
                    " (worst stratum gap " + FormatDouble(report.max_gap, 4) +
                    ")\n";
  for (const StratumReport& sr : report.strata) {
    out += "  stratum " + sr.stratum + ": " +
           (sr.report.satisfied ? "ok" : "VIOLATED") + " gap " +
           FormatDouble(sr.report.max_gap, 4) + "\n";
  }
  if (!report.detail.empty()) out += "  " + report.detail + "\n";
  return out;
}

}  // namespace fairlaw::metrics
