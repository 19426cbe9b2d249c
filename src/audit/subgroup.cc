#include "audit/subgroup.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>

#include "audit/partials.h"
#include "base/string_util.h"
#include "data/column.h"
#include "metrics/fairness_metric.h"
#include "obs/obs.h"
#include "stats/mergeable.h"

namespace fairlaw::audit {

std::string SubgroupDefinition::ToString() const {
  std::string out;
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (i > 0) out += " & ";
    out += conditions[i].first + "=" + conditions[i].second;
  }
  return out.empty() ? "(everyone)" : out;
}

Status SubgroupAuditOptions::Validate() const {
  if (max_depth < 1) {
    return Status::Invalid(
        "SubgroupAuditOptions: max_depth must be >= 1, got " +
        std::to_string(max_depth));
  }
  if (tolerance < 0.0 || tolerance > 1.0) {
    return Status::Invalid(
        "SubgroupAuditOptions: tolerance must lie in [0,1], got " +
        FormatDouble(tolerance, 4));
  }
  return Status::OK();
}

std::vector<SubgroupFinding> SubgroupAuditResult::Violations(
    double tolerance) const {
  std::vector<SubgroupFinding> out;
  for (const SubgroupFinding& finding : findings) {
    if (finding.gap > tolerance) out.push_back(finding);
  }
  return out;
}

namespace {

/// Scores one conjunction.
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

/// Sorts findings by descending gap. stable_sort keeps equal-gap
/// findings in enumeration order — std::sort would make tie order an
/// implementation detail.
void SortFindings(SubgroupAuditResult* result) {
  std::stable_sort(result->findings.begin(), result->findings.end(),
                   [](const SubgroupFinding& a, const SubgroupFinding& b) {
                     return a.gap > b.gap;
                   });
}

// ---------------------------------------------------------------------------
// Cell tally and lattice walk.

/// The cells of the attribute columns: one per distinct tuple of their
/// values that occurs in the table, in first-seen row order, each with
/// its (members, positives) tally. Every cell has at least one member.
struct CellTally {
  /// Each attribute's keys (data::ExtractKeys: first-seen order, a null
  /// rendered as "null").
  std::vector<std::vector<std::string>> values;
  /// Cell c's code for attribute a sits at codes[c * values.size() + a].
  std::vector<uint32_t> codes;
  /// Per cell: count is its members, positive_predictions its positives.
  std::vector<stats::GroupCounts> counts;

  uint32_t code(size_t cell, size_t attribute) const {
    return codes[cell * values.size() + attribute];
  }
};

/// Codes each row's attribute tuple into a cell by pairing in one
/// attribute at a time (CodePairs, as StrataKeys does), then tallies the
/// rows per cell. Only the current attribute's row codes and the rows'
/// cell codes are alive at once.
Result<CellTally> TallyCells(const data::Table& table,
                             const std::vector<std::string>& attributes,
                             const std::vector<int>& predictions) {
  CellTally tally;
  std::vector<uint32_t> row_cells;
  std::vector<uint32_t> cell_codes;  // the tuples of attributes 0..a-1
  for (size_t a = 0; a < attributes.size(); ++a) {
    FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column,
                             table.GetColumn(attributes[a]));
    data::ColumnKeys keys = data::ExtractKeys(*column);
    if (a == 0) {
      // Every key occurs in some row, so the first attribute's codes
      // are its cells.
      cell_codes.resize(keys.keys.size());
      std::iota(cell_codes.begin(), cell_codes.end(), 0u);
      row_cells = std::move(keys.codes);
    } else {
      PairCodes pairs = CodePairs(row_cells, keys.codes, keys.keys.size());
      std::vector<uint32_t> tuples;
      tuples.reserve(pairs.first_rows.size() * (a + 1));
      for (size_t row : pairs.first_rows) {
        const auto parent = cell_codes.begin() + row_cells[row] * a;
        tuples.insert(tuples.end(), parent, parent + a);
        tuples.push_back(keys.codes[row]);
      }
      cell_codes = std::move(tuples);
      row_cells = std::move(pairs.codes);
    }
    tally.values.push_back(std::move(keys.keys));
  }
  tally.codes = std::move(cell_codes);
  tally.counts = metrics::TallyCodes(
      row_cells, tally.codes.size() / attributes.size(), predictions, {});
  return tally;
}

/// Depth-first walk of the conjunction lattice over a cell tally. A
/// node is a set of cells; its children on attribute a are the node's
/// cells bucketed by their code for a, so every node costs
/// O(cells + arity), not O(rows).
class LatticeWalk {
 public:
  LatticeWalk(const std::vector<std::string>& names, const CellTally& cells,
              const SubgroupAuditOptions& options, size_t num_rows,
              double overall_rate)
      : names_(names),
        cells_(cells),
        options_(options),
        num_rows_(num_rows),
        overall_rate_(overall_rate),
        // A node at depth d is narrowed on d distinct attributes, and
        // the walk descends only into nodes with attributes left.
        sorted_(std::min(static_cast<size_t>(options.max_depth),
                         names.size())),
        bucket_ends_(sorted_.size()) {}

  /// Scores each child of `node` (at `depth`, on the attributes from
  /// `next_attribute` on) and walks below it, in canonical order:
  /// attributes in argument order, values in first-seen order. An empty
  /// bucket is a pruned subtree.
  void Children(std::span<const uint32_t> node, size_t next_attribute,
                size_t depth) {
    std::vector<uint32_t>& order = sorted_[depth];
    std::vector<size_t>& ends = bucket_ends_[depth];
    order.resize(node.size());
    for (size_t a = next_attribute; a < names_.size(); ++a) {
      // Counting sort by the code for a: after the scatter, bucket v is
      // order[ends[v-1], ends[v]).
      const std::vector<std::string>& values = cells_.values[a];
      ends.assign(values.size() + 1, 0);
      for (uint32_t cell : node) ++ends[cells_.code(cell, a) + 1];
      for (size_t v = 1; v < ends.size(); ++v) ends[v] += ends[v - 1];
      for (uint32_t cell : node) order[ends[cells_.code(cell, a)]++] = cell;
      size_t begin = 0;
      for (size_t v = 0; v < values.size(); ++v) {
        const size_t end = ends[v];
        if (begin == end) {
          ++pruned_subtrees_;
          continue;
        }
        stats::GroupCounts child;
        for (size_t i = begin; i < end; ++i) child += cells_.counts[order[i]];
        conditions_.push_back({names_[a], values[v]});
        RecordFinding(conditions_, static_cast<size_t>(child.count),
                      static_cast<size_t>(child.positive_predictions),
                      num_rows_, overall_rate_, options_, &result_);
        if (depth + 1 < static_cast<size_t>(options_.max_depth) &&
            a + 1 < names_.size()) {
          Children(std::span<const uint32_t>(order).subspan(begin,
                                                            end - begin),
                   a + 1, depth + 1);
        }
        conditions_.pop_back();
        begin = end;
      }
    }
  }

  SubgroupAuditResult& result() { return result_; }
  uint64_t pruned_subtrees() const { return pruned_subtrees_; }

 private:
  const std::vector<std::string>& names_;
  const CellTally& cells_;
  const SubgroupAuditOptions& options_;
  const size_t num_rows_;
  const double overall_rate_;
  /// One counting-sort buffer per depth, so the walk allocates nothing
  /// once the first node at each depth has sized them.
  std::vector<std::vector<uint32_t>> sorted_;
  std::vector<std::vector<size_t>> bucket_ends_;
  std::vector<std::pair<std::string, std::string>> conditions_;
  uint64_t pruned_subtrees_ = 0;
  SubgroupAuditResult result_;
};

}  // namespace

Result<SubgroupAuditResult> AuditSubgroups(
    const data::Table& table,
    const std::vector<std::string>& attribute_columns,
    const std::string& prediction_column,
    const SubgroupAuditOptions& options) {
  obs::TraceSpan span("audit_subgroups");
  FAIRLAW_RETURN_NOT_OK(options.Validate());
  if (attribute_columns.empty()) {
    return Status::Invalid("AuditSubgroups: no attribute columns");
  }
  if (table.num_rows() == 0) {
    return Status::Invalid("AuditSubgroups: empty table");
  }
  // The prediction column is extracted before the cells are coded, so
  // its error outranks any attribute column's.
  FAIRLAW_ASSIGN_OR_RETURN(const std::vector<int> predictions,
                           BinaryColumn(table, prediction_column));
  FAIRLAW_ASSIGN_OR_RETURN(const CellTally cells,
                           TallyCells(table, attribute_columns, predictions));
  const size_t num_rows = table.num_rows();
  const auto positives =
      std::count(predictions.begin(), predictions.end(), 1);
  LatticeWalk walk(
      attribute_columns, cells, options, num_rows,
      static_cast<double>(positives) / static_cast<double>(num_rows));
  std::vector<uint32_t> everyone(cells.counts.size());
  std::iota(everyone.begin(), everyone.end(), 0u);
  walk.Children(everyone, /*next_attribute=*/0, /*depth=*/0);

  SubgroupAuditResult result = std::move(walk.result());
  obs::GetCounter("subgroup.audits")->Increment();
  obs::GetCounter("subgroup.nodes_visited")
      ->Increment(result.subgroups_examined);
  obs::GetCounter("subgroup.cells")->Increment(cells.counts.size());
  obs::GetCounter("subgroup.pruned_subtrees")
      ->Increment(walk.pruned_subtrees());
  SortFindings(&result);
  return result;
}

size_t CountConjunctions(const std::vector<size_t>& cardinalities,
                         int max_depth) {
  // Sum over non-empty attribute subsets of size <= max_depth of the
  // product of their cardinalities, computed by dynamic programming over
  // attributes.
  std::vector<size_t> by_depth(static_cast<size_t>(max_depth) + 1, 0);
  by_depth[0] = 1;  // the empty conjunction (not counted in the result)
  for (size_t cardinality : cardinalities) {
    for (int d = max_depth; d >= 1; --d) {
      by_depth[d] += by_depth[d - 1] * cardinality;
    }
  }
  size_t total = 0;
  for (int d = 1; d <= max_depth; ++d) total += by_depth[d];
  return total;
}

}  // namespace fairlaw::audit
