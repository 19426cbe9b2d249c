#include "support/proxy_oracle.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "data/column.h"
#include "stats/hypothesis.h"
#include "support/sort_quantiles.h"

namespace fairlaw::audit {
namespace {

/// Maps each row to a discrete bin index for the candidate feature:
/// categorical columns use their ExtractKeys codes (distinct values in
/// first-seen order); numeric columns are cut at quantile boundaries.
Result<std::pair<std::vector<uint32_t>, size_t>> DiscretizeColumn(
    const data::Table& table, const std::string& name, size_t bins) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  if (column->null_count() > 0) {
    return Status::Invalid("DetectProxies: column '" + name + "' has nulls");
  }
  if (column->type() == data::DataType::kString ||
      column->type() == data::DataType::kBool) {
    data::ColumnKeys keys = data::ExtractKeys(*column);
    return std::make_pair(std::move(keys.codes), keys.keys.size());
  }

  FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> values, column->ToDoubles());
  if (bins < 2) return Status::Invalid("DetectProxies: bins must be >= 2");
  // Quantile cut points from one sort; duplicates collapse for
  // low-cardinality columns.
  std::vector<double> levels;
  for (size_t b = 1; b < bins; ++b) {
    levels.push_back(static_cast<double>(b) / static_cast<double>(bins));
  }
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> cuts,
                           stats::QuantilesBySort(values, levels));
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<uint32_t> codes(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    codes[i] = static_cast<uint32_t>(
        std::upper_bound(cuts.begin(), cuts.end(), values[i]) - cuts.begin());
  }
  return std::make_pair(std::move(codes), cuts.size() + 1);
}

}  // namespace

Result<std::vector<std::vector<int64_t>>> ProxyContingencyTableOracle(
    const data::Table& table, const std::string& feature_column,
    const std::string& protected_column, size_t bins) {
  FAIRLAW_ASSIGN_OR_RETURN(auto feature,
                           DiscretizeColumn(table, feature_column, bins));
  FAIRLAW_ASSIGN_OR_RETURN(auto protected_attr,
                           DiscretizeColumn(table, protected_column, bins));
  const auto& [feature_codes, feature_arity] = feature;
  const auto& [protected_codes, protected_arity] = protected_attr;
  std::vector<std::vector<int64_t>> contingency(
      feature_arity, std::vector<int64_t>(protected_arity, 0));
  for (size_t row = 0; row < feature_codes.size(); ++row) {
    ++contingency[feature_codes[row]][protected_codes[row]];
  }
  return contingency;
}

Result<std::vector<ProxyFinding>> DetectProxiesOracle(
    const data::Table& table, const std::string& protected_column,
    const std::vector<std::string>& candidate_columns,
    const ProxyDetectionOptions& options) {
  if (candidate_columns.empty()) {
    return Status::Invalid("DetectProxies: no candidate columns");
  }
  if (options.flag_threshold < 0.0 || options.flag_threshold > 1.0) {
    return Status::Invalid("DetectProxies: flag_threshold must lie in [0,1]");
  }

  std::vector<ProxyFinding> findings;
  findings.reserve(candidate_columns.size());
  for (const std::string& name : candidate_columns) {
    if (name == protected_column) {
      return Status::Invalid("DetectProxies: protected column listed among "
                             "candidates");
    }
    FAIRLAW_ASSIGN_OR_RETURN(
        auto contingency,
        ProxyContingencyTableOracle(table, name, protected_column,
                                    options.bins));
    ProxyFinding finding;
    finding.feature = name;
    FAIRLAW_ASSIGN_OR_RETURN(finding.cramers_v, stats::CramersV(contingency));
    FAIRLAW_ASSIGN_OR_RETURN(finding.mutual_information,
                             stats::MutualInformation(contingency));

    // Predictability probe: guess the protected value as the majority
    // class within each feature bin; gain over the global majority.
    int64_t total = 0;
    std::vector<int64_t> protected_totals(contingency[0].size(), 0);
    int64_t per_bin_correct = 0;
    for (const auto& row : contingency) {
      int64_t best_in_bin = 0;
      for (size_t p = 0; p < row.size(); ++p) {
        protected_totals[p] += row[p];
        total += row[p];
        best_in_bin = std::max(best_in_bin, row[p]);
      }
      per_bin_correct += best_in_bin;
    }
    int64_t majority =
        *std::max_element(protected_totals.begin(), protected_totals.end());
    finding.predictability_gain =
        total > 0 ? (static_cast<double>(per_bin_correct) -
                     static_cast<double>(majority)) /
                        static_cast<double>(total)
                  : 0.0;
    finding.flagged = finding.cramers_v > options.flag_threshold;
    findings.push_back(std::move(finding));
  }
  std::sort(findings.begin(), findings.end(),
            [](const ProxyFinding& a, const ProxyFinding& b) {
              return a.cramers_v > b.cramers_v;
            });
  return findings;
}

}  // namespace fairlaw::audit
