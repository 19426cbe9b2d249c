#ifndef FAIRLAW_AUDIT_SUBGROUP_H_
#define FAIRLAW_AUDIT_SUBGROUP_H_

#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "data/table.h"

namespace fairlaw::audit {

// Subgroup / fairness-gerrymandering audit (§IV-C; Kearns et al. [9]).
// A classifier can satisfy demographic parity on every marginal protected
// attribute while severely disadvantaging a conjunction such as
// (gender=female AND race=caucasian). This auditor enumerates
// conjunctions of attribute=value conditions up to a depth bound and
// scores each against the overall selection rate.

/// A conjunction of attribute=value conditions.
struct SubgroupDefinition {
  std::vector<std::pair<std::string, std::string>> conditions;

  /// Renders "gender=female & race=caucasian".
  std::string ToString() const;
};

/// One audited subgroup.
struct SubgroupFinding {
  SubgroupDefinition subgroup;
  size_t count = 0;
  double selection_rate = 0.0;
  double overall_rate = 0.0;
  /// |selection_rate - overall_rate|.
  double gap = 0.0;
  /// (count / n) * gap — Kearns et al.'s size-weighted violation score,
  /// which discounts tiny subgroups whose rates are noise (§IV-C's
  /// uncertainty concern).
  double weighted_gap = 0.0;
};

struct SubgroupAuditOptions {
  /// Maximum number of conditions per conjunction (1 audits marginals
  /// only). Enumeration cost grows exponentially with depth — the
  /// complexity the paper warns about; bench_e4 measures it.
  int max_depth = 2;
  /// Subgroups with fewer members are skipped.
  size_t min_support = 20;
  /// Gap above which a subgroup counts as a violation.
  double tolerance = 0.05;
  /// Read by nothing: the index build and the lattice walk run serially
  /// on the caller's thread. Kept only because the end-to-end benchmark
  /// harness still assigns it.
  size_t num_threads = 1;

  /// Checks the options before the lattice walk: max_depth >= 1 and
  /// tolerance in [0,1]. AuditSubgroups calls this first, mirroring
  /// AuditConfig::Validate.
  FAIRLAW_NODISCARD Status Validate() const;
};

/// Result of the subgroup audit: all findings (sorted by descending gap)
/// plus the number of conjunctions examined.
struct SubgroupAuditResult {
  std::vector<SubgroupFinding> findings;
  size_t subgroups_examined = 0;
  size_t subgroups_skipped_small = 0;
  bool any_violation = false;

  /// Findings whose gap exceeds the audit tolerance.
  std::vector<SubgroupFinding> Violations(double tolerance) const;
};

/// Enumerates all conjunctions over `attribute_columns` (their distinct
/// values) up to `options.max_depth` and scores each against the overall
/// selection rate of `prediction_column` (binary).
///
/// The table gets one data::GroupIndex (each attribute's values in
/// first-seen row order) and one prediction data::Bitmap. Narrowing a
/// conjunction by one condition is then a Bitmap AND, and the
/// member/selected counts are fused popcounts. A bad prediction column's
/// error outranks a bad attribute column's.
FAIRLAW_NODISCARD Result<SubgroupAuditResult> AuditSubgroups(
    const data::Table& table,
    const std::vector<std::string>& attribute_columns,
    const std::string& prediction_column, const SubgroupAuditOptions& options);

/// Number of conjunctions the exhaustive audit will examine for the given
/// per-attribute cardinalities and depth (the exponential the paper
/// references).
size_t CountConjunctions(const std::vector<size_t>& cardinalities,
                         int max_depth);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_SUBGROUP_H_
