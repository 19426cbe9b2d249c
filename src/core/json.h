#ifndef FAIRLAW_CORE_JSON_H_
#define FAIRLAW_CORE_JSON_H_

#include <string>

#include "base/result.h"
#include "core/suite.h"

namespace fairlaw {

/// Serializes a full suite report (metric reports, proxy findings,
/// subgroup findings, sampling support, four-fifths screen) inside the
/// versioned envelope from audit/report_io.h:
/// {"schema_version":2,"kind":"suite_report","findings":{...}}.
FAIRLAW_NODISCARD Result<std::string> SuiteReportToJson(const SuiteReport& report);

}  // namespace fairlaw

#endif  // FAIRLAW_CORE_JSON_H_
