#include "audit/manipulation.h"

#include <cmath>

#include "base/string_util.h"
#include "metrics/group_metrics.h"

namespace fairlaw::audit {

Result<ManipulationAuditReport> AuditManipulation(
    const std::vector<ml::FeatureImportance>& importances,
    const std::string& sensitive_feature,
    const metrics::MetricInput& outcomes,
    const ManipulationAuditOptions& options) {
  if (importances.empty()) {
    return Status::Invalid("AuditManipulation: no importances");
  }
  double total_mass = 0.0;
  double sensitive_mass = -1.0;
  for (const ml::FeatureImportance& fi : importances) {
    double mass = std::fabs(fi.importance);
    total_mass += mass;
    if (fi.feature == sensitive_feature) sensitive_mass = mass;
  }
  if (sensitive_mass < 0.0) {
    return Status::NotFound("AuditManipulation: feature '" +
                            sensitive_feature +
                            "' not present in the importance list");
  }

  ManipulationAuditReport report;
  report.sensitive_attribution_share =
      total_mass > 0.0 ? sensitive_mass / total_mass : 0.0;
  report.attribution_says_fair =
      report.sensitive_attribution_share < options.attribution_threshold;

  FAIRLAW_ASSIGN_OR_RETURN(
      metrics::MetricReport dp,
      metrics::Evaluate(metrics::MetricId::kDemographicParity, outcomes,
                        options.outcome_tolerance));
  report.outcome_gap = dp.max_gap;
  report.outcome_says_fair = dp.satisfied;
  report.masking_suspected =
      report.attribution_says_fair && !report.outcome_says_fair;
  report.detail =
      "sensitive attribution share " +
      FormatDouble(report.sensitive_attribution_share, 4) +
      (report.attribution_says_fair ? " (attribution audit: fair)"
                                    : " (attribution audit: unfair)") +
      ", outcome DP gap " + FormatDouble(report.outcome_gap, 4) +
      (report.outcome_says_fair ? " (outcome audit: fair)"
                                : " (outcome audit: unfair)") +
      (report.masking_suspected ? " -> MASKING SUSPECTED" : "");
  return report;
}

}  // namespace fairlaw::audit
