#ifndef FAIRLAW_AUDIT_PROXY_H_
#define FAIRLAW_AUDIT_PROXY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "base/result.h"
#include "data/table.h"

namespace fairlaw::audit {

// Proxy-discrimination detection (§IV-B). A feature is a proxy when it is
// statistically associated with the protected attribute strongly enough
// that a model trained without the protected attribute can reconstruct
// the bias through it ("fairness through unawareness" failure).

/// Association scores between one candidate feature and the protected
/// attribute.
struct ProxyFinding {
  std::string feature;
  /// Cramér's V of the (discretized) feature vs the protected attribute,
  /// in [0,1].
  double cramers_v = 0.0;
  /// Mutual information (nats) of the same contingency table.
  double mutual_information = 0.0;
  /// Accuracy of predicting the protected attribute from this feature
  /// alone (majority class per feature bin), minus the majority-class
  /// baseline; > 0 means the feature carries protected information.
  double predictability_gain = 0.0;
  /// True when cramers_v exceeds the configured threshold.
  bool flagged = false;
};

struct ProxyDetectionOptions {
  /// Quantile bins used to discretize continuous candidates.
  size_t bins = 10;
  /// Cramér's V above which a feature is flagged as a proxy.
  double flag_threshold = 0.3;
};

/// Scores every candidate column against the protected column. Candidates
/// may be numeric (discretized into quantile bins) or categorical.
/// Findings are sorted by descending Cramér's V.
///
/// The protected column is discretized once and shared by every
/// candidate. On a table of more than data::kDefaultChunkRows rows the
/// candidates are scored on the pool MorselPool grants `num_threads`
/// (0 = one per hardware thread) for one task per candidate, each
/// worker reusing one selection buffer; a smaller table is scored on
/// the calling thread. Findings fold in candidate order, so they and
/// the error reported (the first failing candidate's) do not depend on
/// the thread count. Each candidate opens a "candidate" span under the
/// caller's current path.
FAIRLAW_NODISCARD Result<std::vector<ProxyFinding>> DetectProxies(
    const data::Table& table, const std::string& protected_column,
    const std::vector<std::string>& candidate_columns,
    const ProxyDetectionOptions& options = {}, size_t num_threads = 1);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_PROXY_H_
