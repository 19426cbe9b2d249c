#include "audit/sampling_adequacy.h"

#include <cmath>
#include <cstdint>

#include "stats/hypothesis.h"

namespace fairlaw::audit {

Result<SamplingReport> AssessSamplingAdequacy(
    const std::vector<metrics::GroupStats>& stats,
    const SamplingAdequacyOptions& options) {
  if (options.confidence <= 0.0 || options.confidence >= 1.0) {
    return Status::Invalid("AssessSamplingAdequacy: confidence must lie in "
                           "(0,1)");
  }
  if (options.max_ci_halfwidth <= 0.0) {
    return Status::Invalid("AssessSamplingAdequacy: max_ci_halfwidth must be "
                           "> 0");
  }
  if (stats.empty()) {
    return Status::Invalid("AssessSamplingAdequacy: no groups");
  }
  FAIRLAW_ASSIGN_OR_RETURN(
      double z, stats::NormalQuantile(0.5 + options.confidence / 2.0));

  SamplingReport report;
  int64_t total = 0;
  for (const metrics::GroupStats& gs : stats) total += gs.count;
  const double n = static_cast<double>(total);
  std::string inadequate;
  for (const metrics::GroupStats& gs : stats) {
    GroupSupport support;
    support.group = gs.group;
    support.count = static_cast<size_t>(gs.count);
    support.share = static_cast<double>(gs.count) / n;
    support.selection_rate = gs.selection_rate;
    double p = gs.selection_rate;
    support.ci_halfwidth =
        gs.count > 0
            ? z * std::sqrt(p * (1.0 - p) / static_cast<double>(gs.count))
            : 1.0;
    support.adequate = support.count >= options.min_count &&
                       support.ci_halfwidth <= options.max_ci_halfwidth;
    if (!support.adequate) {
      report.all_adequate = false;
      if (!inadequate.empty()) inadequate += ", ";
      inadequate += support.group;
    }
    report.groups.push_back(std::move(support));
  }
  if (!report.all_adequate) {
    report.detail = "groups with inadequate support: " + inadequate +
                    " — rate estimates for these groups are unreliable "
                    "(paper §IV-F)";
  }
  return report;
}

Result<SamplingReport> AssessSamplingAdequacy(
    const metrics::MetricInput& input,
    const SamplingAdequacyOptions& options) {
  FAIRLAW_ASSIGN_OR_RETURN(
      std::vector<metrics::GroupStats> stats,
      metrics::ComputeGroupStats(input, /*with_labels=*/false));
  return AssessSamplingAdequacy(stats, options);
}

Result<size_t> RequiredSampleSize(double rate, double halfwidth,
                                  double confidence) {
  if (rate < 0.0 || rate > 1.0) {
    return Status::Invalid("RequiredSampleSize: rate must lie in [0,1]");
  }
  if (halfwidth <= 0.0) {
    return Status::Invalid("RequiredSampleSize: halfwidth must be > 0");
  }
  if (confidence <= 0.0 || confidence >= 1.0) {
    return Status::Invalid("RequiredSampleSize: confidence must lie in (0,1)");
  }
  FAIRLAW_ASSIGN_OR_RETURN(double z,
                           stats::NormalQuantile(0.5 + confidence / 2.0));
  double variance = rate * (1.0 - rate);
  if (variance == 0.0) return static_cast<size_t>(1);
  return static_cast<size_t>(
      std::ceil(z * z * variance / (halfwidth * halfwidth)));
}

}  // namespace fairlaw::audit
