#include "audit/partials.h"

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>

#include "metrics/fairness_metric.h"
#include "obs/obs.h"

namespace fairlaw::audit {

Result<std::vector<int>> BinaryColumn(const data::Table& table,
                                      const std::string& name) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> values, column->ToDoubles());
  std::vector<int> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0.0 && values[i] != 1.0) {
      return Status::Invalid("column '" + name + "' must be binary 0/1");
    }
    out[i] = values[i] == 1.0 ? 1 : 0;
  }
  return out;
}

Result<data::ColumnKeys> GroupKeys(const data::Table& table,
                                   const std::string& name) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  if (column->null_count() > 0) {
    return Status::Invalid("column '" + name + "' has nulls; audits require "
                           "explicit missing-value handling upstream");
  }
  return data::ExtractKeys(*column);
}

PairCodes CodePairs(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    size_t b_arity) {
  PairCodes out;
  out.codes.resize(a.size());
  // Only the pairs that occur get a slot, so memory stays O(rows)
  // however large the product of the two arities.
  std::unordered_map<uint64_t, uint32_t> slots;
  for (size_t row = 0; row < a.size(); ++row) {
    const auto [it, inserted] =
        slots.try_emplace(static_cast<uint64_t>(a[row]) * b_arity + b[row],
                          static_cast<uint32_t>(out.first_rows.size()));
    if (inserted) out.first_rows.push_back(row);
    out.codes[row] = it->second;
  }
  return out;
}

Result<data::ColumnKeys> StrataKeys(
    const data::Table& table,
    const std::vector<std::string>& strata_columns) {
  if (strata_columns.empty()) {
    return Status::Invalid("StrataKeys: no strata columns");
  }
  std::vector<data::ColumnKeys> columns(strata_columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    FAIRLAW_ASSIGN_OR_RETURN(columns[c], GroupKeys(table, strata_columns[c]));
  }
  if (columns.size() == 1) return std::move(columns[0]);
  // Pair in one column at a time: after column c a code names a tuple of
  // the keys of columns 0..c.
  data::ColumnKeys strata{columns[0].codes, {}};
  std::vector<size_t> first_rows;
  for (size_t c = 1; c < columns.size(); ++c) {
    PairCodes tuples =
        CodePairs(strata.codes, columns[c].codes, columns[c].keys.size());
    strata.codes = std::move(tuples.codes);
    first_rows = std::move(tuples.first_rows);
  }
  strata.keys.reserve(first_rows.size());
  for (size_t row : first_rows) {
    std::string key;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) key += "|";
      key += columns[c].keys[columns[c].codes[row]];
    }
    strata.keys.push_back(std::move(key));
  }
  return strata;
}

ChunkPartial ProcessChunk(const data::Table& chunk, const AuditConfig& config,
                          const std::string& parent_path) {
  obs::TraceSpan span("audit_chunk", parent_path);
  obs::GetCounter("audit.chunks_processed")->Increment();
  ChunkPartial partial;
  data::ColumnKeys groups;
  {
    Result<data::ColumnKeys> keys = GroupKeys(chunk, config.protected_column);
    partial.status[kProtectedStep] = keys.status();
    if (keys.status().ok()) groups = std::move(keys).ValueOrDie();
  }
  std::vector<int> predictions;
  {
    Result<std::vector<int>> values =
        BinaryColumn(chunk, config.prediction_column);
    partial.status[kPredictionStep] = values.status();
    if (values.status().ok()) predictions = std::move(values).ValueOrDie();
  }
  std::vector<int> labels;
  if (!config.label_column.empty()) {
    Result<std::vector<int>> values = BinaryColumn(chunk, config.label_column);
    partial.status[kLabelStep] = values.status();
    if (values.status().ok()) labels = std::move(values).ValueOrDie();
  }
  std::vector<double> scores;
  if (!config.score_column.empty()) {
    Result<const data::Column*> score_column =
        chunk.GetColumn(config.score_column);
    if (!score_column.status().ok()) {
      partial.status[kScoreStep] = score_column.status();
    } else {
      Result<std::vector<double>> values =
          std::move(score_column).ValueOrDie()->ToDoubles();
      partial.status[kScoreStep] = values.status();
      if (values.status().ok()) scores = std::move(values).ValueOrDie();
    }
  }
  data::ColumnKeys strata;
  if (!config.strata_columns.empty()) {
    Result<data::ColumnKeys> keys = StrataKeys(chunk, config.strata_columns);
    partial.status[kStrataStep] = keys.status();
    if (keys.status().ok()) strata = std::move(keys).ValueOrDie();
  }
  // Past the extraction steps every column is valid and comes from this
  // (nonempty) chunk, and BinaryColumn enforced 0/1. Rows tally into
  // arrays by code; each key then folds into its map once.
  if (!FirstError(partial.status).ok()) return partial;

  metrics::TallyRows(groups.codes, groups.keys, predictions, labels,
                     &partial.counts);
  if (!config.strata_columns.empty()) {
    // One cell per (stratum, group) pair in first-seen row order, so
    // strata and the groups within each keep first-seen order.
    const PairCodes cells =
        CodePairs(strata.codes, groups.codes, groups.keys.size());
    const std::vector<stats::GroupCounts> tallies = metrics::TallyCodes(
        cells.codes, cells.first_rows.size(), predictions, {});
    for (size_t cell = 0; cell < tallies.size(); ++cell) {
      const size_t row = cells.first_rows[cell];
      partial.strata_counts[strata.keys[strata.codes[row]]]
                           [groups.keys[groups.codes[row]]] += tallies[cell];
    }
  }
  if (!config.score_column.empty()) {
    std::vector<stats::TaggedSeries> series(groups.keys.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      series[groups.codes[i]].Append(scores[i],
                                     static_cast<uint8_t>(labels[i]));
    }
    for (size_t k = 0; k < series.size(); ++k) {
      partial.score_series[groups.keys[k]] = std::move(series[k]);
    }
  }
  return partial;
}

Status FirstError(const StepStatuses& statuses) {
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

void MergedPartials::Fold(ChunkPartial&& partial) {
  for (size_t step = 0; step < kNumAuditSteps; ++step) {
    if (status_[step].ok()) status_[step] = partial.status[step];
  }
  if (!FirstError().ok()) return;  // result discarded; skip the merge work
  counts_.MergeFrom(partial.counts);
  strata_counts_.MergeFrom(partial.strata_counts);
  score_series_.MergeFrom(partial.score_series);
}

}  // namespace fairlaw::audit
