#ifndef FAIRLAW_AUDIT_REPRESENTATION_H_
#define FAIRLAW_AUDIT_REPRESENTATION_H_

#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "metrics/fairness_metric.h"

namespace fairlaw::audit {

// Representation-bias audit (§IV-F): "one can compare the distribution of
// a protected attribute in the general population against the
// distribution of the protected attribute in the training data. Then,
// bias detection involves calculating distances between two probability
// distributions." This module does exactly that: given population-wide
// reference shares (census-style marginals), it measures how far the
// training data's composition deviates, under the distances the paper
// names, and states how many samples the verdict is good for.

/// Per-group representation comparison.
struct GroupRepresentation {
  std::string group;
  int64_t count = 0;
  double data_share = 0.0;       // share in the audited dataset
  double reference_share = 0.0;  // share in the population reference
  /// data_share / reference_share; < 1 means under-represented.
  double representation_ratio = 1.0;
  bool under_represented = false;
};

struct RepresentationAuditOptions {
  /// A group is flagged when its representation ratio falls below this.
  double under_representation_threshold = 0.8;
  /// Distance above which the composition as a whole is flagged.
  double max_total_variation = 0.1;
};

struct RepresentationReport {
  std::vector<GroupRepresentation> groups;
  /// Distances between the dataset composition and the reference
  /// (aligned category order).
  double total_variation = 0.0;
  double hellinger = 0.0;
  double chi_square_p_value = 1.0;  // goodness-of-fit vs the reference
  bool composition_ok = true;       // TV within bounds, nobody flagged
  std::string detail;
};

/// Compares the group sizes of a protected-attribute tally (the audit's
/// per-group stats; only `group` and `count` are read) against
/// `reference_shares` (group -> population share; missing groups in
/// either direction are errors, because silently dropping a category is
/// itself a representation failure). Shares must be finite and
/// non-negative; they are normalized internally.
FAIRLAW_NODISCARD Result<RepresentationReport> AuditRepresentation(
    const std::vector<metrics::GroupStats>& groups,
    const std::map<std::string, double>& reference_shares,
    const RepresentationAuditOptions& options = {});

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_REPRESENTATION_H_
