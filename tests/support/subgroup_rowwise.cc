#include "support/subgroup_rowwise.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "data/table.h"
#include "obs/obs.h"

namespace fairlaw::audit {

namespace {

/// Scores one conjunction. A copy of the library's scoring, so the
/// oracle stays an independent reference rather than sharing code with
/// what it checks.
void RecordFinding(
    const std::vector<std::pair<std::string, std::string>>& conditions,
    size_t member_count, size_t positives, size_t num_rows,
    double overall_rate, const SubgroupAuditOptions& options,
    SubgroupAuditResult* result) {
  ++result->subgroups_examined;
  if (member_count < options.min_support) {
    ++result->subgroups_skipped_small;
    return;
  }
  SubgroupFinding finding;
  finding.subgroup.conditions = conditions;
  finding.count = member_count;
  finding.selection_rate = static_cast<double>(positives) /
                           static_cast<double>(member_count);
  finding.overall_rate = overall_rate;
  finding.gap = std::fabs(finding.selection_rate - overall_rate);
  finding.weighted_gap = finding.gap * static_cast<double>(member_count) /
                         static_cast<double>(num_rows);
  if (finding.gap > options.tolerance) result->any_violation = true;
  result->findings.push_back(std::move(finding));
}

/// Descending gap; ties keep enumeration order.
void SortFindings(SubgroupAuditResult* result) {
  std::stable_sort(result->findings.begin(), result->findings.end(),
                   [](const SubgroupFinding& a, const SubgroupFinding& b) {
                     return a.gap > b.gap;
                   });
}

struct AttributeColumn {
  std::string name;
  std::vector<std::string> values;  // per-row rendered value
  std::vector<std::string> distinct;  // first-seen order
};

void EnumerateRowwise(const std::vector<AttributeColumn>& attributes,
                      const std::vector<int>& predictions,
                      double overall_rate,
                      const SubgroupAuditOptions& options,
                      size_t next_attribute, int depth,
                      std::vector<std::pair<std::string, std::string>>*
                          conditions,
                      std::vector<size_t>* member_rows,
                      SubgroupAuditResult* result) {
  if (depth > 0) {
    size_t positives = 0;
    for (size_t row : *member_rows) {
      positives += static_cast<size_t>(predictions[row]);
    }
    RecordFinding(*conditions, member_rows->size(), positives,
                  predictions.size(), overall_rate, options, result);
  }
  if (depth >= options.max_depth) return;
  for (size_t a = next_attribute; a < attributes.size(); ++a) {
    const AttributeColumn& attribute = attributes[a];
    for (const std::string& value : attribute.distinct) {
      std::vector<size_t> narrowed;
      narrowed.reserve(member_rows->size());
      for (size_t row : *member_rows) {
        // The per-row compare is the scalar baseline the cell-tally
        // walk replaces.
        if (attribute.values[row] == value) narrowed.push_back(row);
      }
      if (narrowed.empty()) continue;
      conditions->push_back({attribute.name, value});
      EnumerateRowwise(attributes, predictions, overall_rate, options, a + 1,
                       depth + 1, conditions, &narrowed, result);
      conditions->pop_back();
    }
  }
}

}  // namespace

Result<SubgroupAuditResult> AuditSubgroupsRowwise(
    const data::Table& table,
    const std::vector<std::string>& attribute_columns,
    const std::string& prediction_column,
    const SubgroupAuditOptions& options) {
  obs::TraceSpan span("audit_subgroups_rowwise");
  FAIRLAW_RETURN_NOT_OK(options.Validate());
  if (attribute_columns.empty()) {
    return Status::Invalid("AuditSubgroups: no attribute columns");
  }
  if (table.num_rows() == 0) {
    return Status::Invalid("AuditSubgroups: empty table");
  }

  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* prediction_col,
                           table.GetColumn(prediction_column));
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> raw_predictions,
                           prediction_col->ToDoubles());
  std::vector<int> predictions(raw_predictions.size());
  size_t positives = 0;
  for (size_t i = 0; i < raw_predictions.size(); ++i) {
    if (raw_predictions[i] != 0.0 && raw_predictions[i] != 1.0) {
      return Status::Invalid("AuditSubgroups: prediction column must be 0/1");
    }
    predictions[i] = raw_predictions[i] == 1.0 ? 1 : 0;
    positives += static_cast<size_t>(predictions[i]);
  }
  const double overall_rate =
      static_cast<double>(positives) / static_cast<double>(predictions.size());

  std::vector<AttributeColumn> attributes;
  attributes.reserve(attribute_columns.size());
  for (const std::string& name : attribute_columns) {
    FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column,
                             table.GetColumn(name));
    AttributeColumn attribute;
    attribute.name = name;
    attribute.values.resize(column->size());
    std::set<std::string> seen;
    for (size_t row = 0; row < column->size(); ++row) {
      attribute.values[row] = column->ValueToString(row);
      if (seen.insert(attribute.values[row]).second) {
        attribute.distinct.push_back(attribute.values[row]);
      }
    }
    attributes.push_back(std::move(attribute));
  }

  SubgroupAuditResult result;
  std::vector<std::pair<std::string, std::string>> conditions;
  std::vector<size_t> all_rows(table.num_rows());
  for (size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  EnumerateRowwise(attributes, predictions, overall_rate, options,
                   /*next_attribute=*/0, /*depth=*/0, &conditions, &all_rows,
                   &result);
  SortFindings(&result);
  return result;
}


}  // namespace fairlaw::audit
