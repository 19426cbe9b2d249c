#ifndef FAIRLAW_TESTS_SUPPORT_SUBGROUP_ROWWISE_H_
#define FAIRLAW_TESTS_SUPPORT_SUBGROUP_ROWWISE_H_

#include <string>
#include <vector>

#include "audit/subgroup.h"
#include "base/result.h"
#include "data/table.h"

namespace fairlaw::audit {

/// Scalar reference for AuditSubgroups: per-row string compares over
/// std::vector<size_t> row lists, serial. It is the equivalence oracle
/// for the subgroup tests and the "before" side of bench_micro_subgroup's
/// kernel comparison; its findings are byte-identical to AuditSubgroups.
FAIRLAW_NODISCARD Result<SubgroupAuditResult> AuditSubgroupsRowwise(
    const data::Table& table,
    const std::vector<std::string>& attribute_columns,
    const std::string& prediction_column, const SubgroupAuditOptions& options);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_TESTS_SUPPORT_SUBGROUP_ROWWISE_H_
