#ifndef FAIRLAW_CORE_JSON_H_
#define FAIRLAW_CORE_JSON_H_

#include <string>

#include "base/result.h"
#include "core/suite.h"
#include "metrics/fairness_metric.h"

namespace fairlaw {

/// Serializes a full suite report (metric reports, proxy findings,
/// subgroup findings, sampling support, four-fifths screen) inside the
/// versioned envelope from audit/report_io.h:
/// {"schema_version":2,"kind":"suite_report","findings":{...}}.
FAIRLAW_NODISCARD Result<std::string> SuiteReportToJson(const SuiteReport& report);

/// Serializes a single metric report (no envelope — it is the embedded
/// per-metric shape shared with audit::WriteMetricReport).
FAIRLAW_NODISCARD Result<std::string> MetricReportToJson(const metrics::MetricReport& report);

}  // namespace fairlaw

#endif  // FAIRLAW_CORE_JSON_H_
