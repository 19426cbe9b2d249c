#ifndef FAIRLAW_TESTS_SUPPORT_STRATA_STRINGS_H_
#define FAIRLAW_TESTS_SUPPORT_STRATA_STRINGS_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "data/table.h"

namespace fairlaw::audit {

/// String-keyed reference for the audit's strata: the stratum key of each
/// row (the values of `strata_columns` joined with '|'). Tests tally over
/// these strings to check the code-keyed tallies the audit builds.
FAIRLAW_NODISCARD Result<std::vector<std::string>> StrataFromTable(
    const data::Table& table, const std::vector<std::string>& strata_columns);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_TESTS_SUPPORT_STRATA_STRINGS_H_
