#ifndef FAIRLAW_AUDIT_MANIPULATION_H_
#define FAIRLAW_AUDIT_MANIPULATION_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "ml/feature_importance.h"
#include "metrics/fairness_metric.h"

namespace fairlaw::audit {

// Robustness-to-manipulation audit (§IV-E; Dimanov et al. [3]). A model
// owner can retrain a classifier so that explanation methods attribute
// ~nothing to the protected feature while the model keeps discriminating
// through correlated features. The defense: never accept an
// attribution-only fairness argument — cross-check it against the
// model's observed outcome rates.

/// Verdict of the cross-check.
struct ManipulationAuditReport {
  /// Share of total attribution mass assigned to the sensitive feature,
  /// in [0,1].
  double sensitive_attribution_share = 0.0;
  /// An attribution-based auditor would call the model fair when the
  /// sensitive share is below `attribution_threshold`.
  bool attribution_says_fair = false;
  /// Demographic-parity gap of the actual predictions.
  double outcome_gap = 0.0;
  /// An outcome-based auditor calls the model fair when the gap is within
  /// `outcome_tolerance`.
  bool outcome_says_fair = false;
  /// True when the attribution audit passes but the outcome audit fails —
  /// the signature of masked discrimination.
  bool masking_suspected = false;
  std::string detail;
};

struct ManipulationAuditOptions {
  /// Sensitive-attribution share below which an attribution audit would
  /// pass the model.
  double attribution_threshold = 0.05;
  /// Demographic-parity gap tolerance for the outcome audit.
  double outcome_tolerance = 0.05;
};

/// Runs the cross-check. `importances` comes from any attribution method
/// (e.g. ml::LinearAttribution);
/// `sensitive_feature` names the protected feature inside it; `outcomes`
/// carries the model's predictions and group memberships.
FAIRLAW_NODISCARD Result<ManipulationAuditReport> AuditManipulation(
    const std::vector<ml::FeatureImportance>& importances,
    const std::string& sensitive_feature,
    const metrics::MetricInput& outcomes,
    const ManipulationAuditOptions& options = {});

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_MANIPULATION_H_
