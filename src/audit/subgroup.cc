#include "audit/subgroup.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "audit/morsel.h"
#include "audit/partials.h"
#include "base/string_util.h"
#include "data/bitmap.h"
#include "data/chunked.h"
#include "data/group_index.h"
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
// Lattice walk.

/// Kernel statistics, tallied on plain fields while the walk runs and
/// folded into the obs counters once per audit — the lattice walk is
/// the hot path, so it never touches an atomic per node.
struct KernelTally {
  uint64_t popcount_calls = 0;
  uint64_t pruned_subtrees = 0;
};

/// The chunk-spanning analogue of data::AttributeIndex: the same
/// first-seen value dictionary, with one ChunkedBitmap per value. Values
/// absent from a chunk hold an all-zero bitmap there, so every value's
/// bitmap shares the table's chunk layout and the AND/popcount kernels
/// never special-case absence.
struct ChunkedAttributeIndex {
  std::string name;
  stats::FirstSeenMap<data::ChunkedBitmap> values;  // value -> rows
};

/// Scores the conjunction `conditions` (depth >= 1), then walks the
/// lattice below it. `scratch` holds one preallocated bitmap per depth
/// level, so the whole walk allocates nothing: the intersection for
/// depth d is computed into (*scratch)[d] and its popcount falls out of
/// the same pass (ChunkedBitmap::AndInto). One logical kernel call counts
/// once in the tally however many chunks it spans, which keeps the kernel
/// counters chunk-layout-invariant.
void EnumerateBitmap(const std::vector<ChunkedAttributeIndex>& attrs,
                     const data::ChunkedBitmap& predictions,
                     double overall_rate, size_t num_rows,
                     const SubgroupAuditOptions& options,
                     size_t next_attribute, int depth,
                     const data::ChunkedBitmap& members, size_t member_count,
                     std::vector<std::pair<std::string, std::string>>*
                         conditions,
                     std::vector<data::ChunkedBitmap>* scratch,
                     SubgroupAuditResult* result, KernelTally* tally) {
  const size_t positives =
      data::ChunkedBitmap::AndCount(members, predictions);
  ++tally->popcount_calls;
  RecordFinding(*conditions, member_count, positives, num_rows, overall_rate,
                options, result);
  if (depth >= options.max_depth) return;
  for (size_t a = next_attribute; a < attrs.size(); ++a) {
    const ChunkedAttributeIndex& attribute = attrs[a];
    for (size_t v = 0; v < attribute.values.num_keys(); ++v) {
      data::ChunkedBitmap& narrowed = (*scratch)[static_cast<size_t>(depth)];
      const size_t count = data::ChunkedBitmap::AndInto(
          members, attribute.values.slot(v), &narrowed);
      ++tally->popcount_calls;
      if (count == 0) {
        ++tally->pruned_subtrees;
        continue;
      }
      conditions->push_back({attribute.name, attribute.values.keys()[v]});
      EnumerateBitmap(attrs, predictions, overall_rate, num_rows, options,
                      a + 1, depth + 1, narrowed, count, conditions, scratch,
                      result, tally);
      conditions->pop_back();
    }
  }
}

/// The full lattice walk over a merged index: roots in canonical order
/// (attributes in argument order, values in first-seen order), obs
/// counters, final sort.
SubgroupAuditResult RunLattice(
    const std::vector<ChunkedAttributeIndex>& attrs,
    const data::ChunkedBitmap& predictions, double overall_rate,
    size_t num_rows, const SubgroupAuditOptions& options) {
  SubgroupAuditResult result;
  KernelTally tally;
  // Depth d intersections land in scratch[d]; a root set is its index
  // bitmap itself, so levels 1..max_depth-1 suffice.
  std::vector<data::ChunkedBitmap> scratch(
      static_cast<size_t>(options.max_depth) + 1);
  std::vector<std::pair<std::string, std::string>> conditions;
  for (size_t a = 0; a < attrs.size(); ++a) {
    const ChunkedAttributeIndex& attribute = attrs[a];
    for (size_t v = 0; v < attribute.values.num_keys(); ++v) {
      const data::ChunkedBitmap& members = attribute.values.slot(v);
      ++tally.popcount_calls;
      conditions = {{attribute.name, attribute.values.keys()[v]}};
      // Index bitmaps are nonempty: every value comes from some row.
      EnumerateBitmap(attrs, predictions, overall_rate, num_rows, options,
                      a + 1, /*depth=*/1, members, members.Count(),
                      &conditions, &scratch, &result, &tally);
    }
  }
  obs::GetCounter("subgroup.audits")->Increment();
  obs::GetCounter("subgroup.nodes_visited")
      ->Increment(result.subgroups_examined);
  obs::GetCounter("subgroup.popcount_calls")->Increment(tally.popcount_calls);
  obs::GetCounter("subgroup.pruned_subtrees")
      ->Increment(tally.pruned_subtrees);
  SortFindings(&result);
  return result;
}

// ---------------------------------------------------------------------------
// Per-chunk indexing.

/// Per-chunk indexing output: both extraction steps always run so the
/// step-ranked error merge below gives every chunk layout the one-chunk
/// error precedence (predictions are extracted before the index is
/// built, and every step error is a row-independent string).
struct ChunkIndexPartial {
  size_t num_rows = 0;
  Status prediction_status;
  Status index_status;
  data::Bitmap predictions;
  data::GroupIndex index;
};

ChunkIndexPartial IndexChunk(const data::Table& chunk,
                             const std::vector<std::string>& attribute_columns,
                             const std::string& prediction_column) {
  ChunkIndexPartial partial;
  partial.num_rows = chunk.num_rows();
  Result<std::vector<int>> predictions = BinaryColumn(chunk, prediction_column);
  partial.prediction_status = predictions.status();
  if (partial.prediction_status.ok()) {
    partial.predictions = data::Bitmap::FromBits(predictions.ValueOrDie());
  }
  auto index = data::GroupIndex::Build(chunk, attribute_columns);
  partial.index_status = index.status();
  if (partial.index_status.ok()) {
    partial.index = std::move(index).ValueOrDie();
  }
  return partial;
}

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

  // Morsel phase: every chunk is indexed independently.
  std::vector<ChunkIndexPartial> partials;
  ChunkStream chunks(table, options.chunk_rows);
  FAIRLAW_RETURN_NOT_OK(RunMorsels(
      chunks, options.num_threads,
      [&attribute_columns, &prediction_column](const data::Table& chunk) {
        return IndexChunk(chunk, attribute_columns, prediction_column);
      },
      [&partials](ChunkIndexPartial partial) {
        partials.push_back(std::move(partial));
      }));
  const size_t num_chunks = partials.size();
  // Step outranks chunk: a one-chunk audit fails on the prediction
  // column before it ever builds the index, so any chunk's prediction
  // error beats any chunk's index error.
  for (const ChunkIndexPartial& partial : partials) {
    FAIRLAW_RETURN_NOT_OK(partial.prediction_status);
  }
  for (const ChunkIndexPartial& partial : partials) {
    FAIRLAW_RETURN_NOT_OK(partial.index_status);
  }

  std::vector<size_t> chunk_sizes(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_sizes[c] = partials[c].num_rows;
  }

  std::vector<data::Bitmap> prediction_chunks;
  prediction_chunks.reserve(num_chunks);
  for (ChunkIndexPartial& partial : partials) {
    prediction_chunks.push_back(std::move(partial.predictions));
  }
  data::ChunkedBitmap predictions(std::move(prediction_chunks));
  const double overall_rate = static_cast<double>(predictions.Count()) /
                              static_cast<double>(table.num_rows());

  // Merge the per-chunk value dictionaries in chunk order: each chunk's
  // values are in its first-seen row order, so first-seen-across-chunks
  // is exactly the whole-table first-seen order. A value enters with an
  // all-zero bitmap and takes each chunk's bitmap where it occurs.
  std::vector<ChunkedAttributeIndex> attributes;
  attributes.reserve(attribute_columns.size());
  for (size_t a = 0; a < attribute_columns.size(); ++a) {
    ChunkedAttributeIndex merged{
        attribute_columns[a], stats::FirstSeenMap<data::ChunkedBitmap>(
                                  data::ChunkedBitmap::AllZero(chunk_sizes))};
    for (size_t c = 0; c < num_chunks; ++c) {
      const stats::FirstSeenMap<data::Bitmap>& local =
          partials[c].index.attributes()[a].values;
      for (size_t v = 0; v < local.num_keys(); ++v) {
        *merged.values[local.keys()[v]].mutable_chunk(c) = local.slot(v);
      }
    }
    attributes.push_back(std::move(merged));
  }

  return RunLattice(attributes, predictions, overall_rate, table.num_rows(),
                    options);
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
