#include "support/strata_strings.h"

#include <cstdint>

#include "audit/partials.h"

namespace fairlaw::audit {

Result<std::vector<std::string>> StrataFromTable(
    const data::Table& table,
    const std::vector<std::string>& strata_columns) {
  FAIRLAW_ASSIGN_OR_RETURN(data::ColumnKeys strata,
                           StrataKeys(table, strata_columns));
  std::vector<std::string> out;
  out.reserve(strata.codes.size());
  for (uint32_t code : strata.codes) out.push_back(strata.keys[code]);
  return out;
}

}  // namespace fairlaw::audit
