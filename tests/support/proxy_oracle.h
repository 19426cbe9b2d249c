#ifndef FAIRLAW_TESTS_SUPPORT_PROXY_ORACLE_H_
#define FAIRLAW_TESTS_SUPPORT_PROXY_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "audit/proxy.h"
#include "base/result.h"
#include "data/table.h"

namespace fairlaw::audit {

/// Serial reference for DetectProxies: one candidate after another, each
/// rediscretizing the protected column, numeric columns copied with
/// ToDoubles and cut at full-sort quantiles (stats::QuantilesBySort).
/// The differential oracle of proxy_test: DetectProxies must return the
/// same findings, or the same error, at any thread count.
FAIRLAW_NODISCARD Result<std::vector<ProxyFinding>> DetectProxiesOracle(
    const data::Table& table, const std::string& protected_column,
    const std::vector<std::string>& candidate_columns,
    const ProxyDetectionOptions& options = {});

/// The contingency table of (discretized) `feature_column` x
/// `protected_column` the oracle scores: rows are the feature's codes,
/// columns the protected column's.
FAIRLAW_NODISCARD Result<std::vector<std::vector<int64_t>>>
ProxyContingencyTableOracle(const data::Table& table,
                            const std::string& feature_column,
                            const std::string& protected_column, size_t bins);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_TESTS_SUPPORT_PROXY_ORACLE_H_
