#include "audit/partials.h"

#include <cstdint>
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

Result<std::vector<std::string>> StringKeys(const data::Table& table,
                                            const std::string& name) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  if (column->null_count() > 0) {
    return Status::Invalid("column '" + name + "' has nulls; audits require "
                           "explicit missing-value handling upstream");
  }
  std::vector<std::string> out(column->size());
  for (size_t i = 0; i < column->size(); ++i) {
    out[i] = column->ValueToString(i);
  }
  return out;
}

ChunkPartial ProcessChunk(const data::Table& chunk, const AuditConfig& config,
                          const std::string& parent_path) {
  obs::TraceSpan span("audit_chunk", parent_path);
  obs::GetCounter("audit.chunks_processed")->Increment();
  ChunkPartial partial;
  metrics::MetricInput input;
  {
    Result<std::vector<std::string>> groups =
        StringKeys(chunk, config.protected_column);
    partial.status[kProtectedStep] = groups.status();
    if (groups.status().ok()) input.groups = std::move(groups).ValueOrDie();
  }
  {
    Result<std::vector<int>> predictions =
        BinaryColumn(chunk, config.prediction_column);
    partial.status[kPredictionStep] = predictions.status();
    if (predictions.status().ok()) {
      input.predictions = std::move(predictions).ValueOrDie();
    }
  }
  if (!config.label_column.empty()) {
    Result<std::vector<int>> labels = BinaryColumn(chunk, config.label_column);
    partial.status[kLabelStep] = labels.status();
    if (labels.status().ok()) input.labels = std::move(labels).ValueOrDie();
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
  std::vector<std::string> strata;
  if (!config.strata_columns.empty()) {
    Result<std::vector<std::string>> chunk_strata =
        StrataFromTable(chunk, config.strata_columns);
    partial.status[kStrataStep] = chunk_strata.status();
    if (chunk_strata.status().ok()) {
      strata = std::move(chunk_strata).ValueOrDie();
    }
  }
  // Past the extraction steps the input is valid: every column comes
  // from this (nonempty) chunk and BinaryColumn enforced 0/1.
  if (!FirstError(partial.status).ok()) return partial;

  metrics::TallyRows(input, &partial.counts);
  for (size_t i = 0; i < strata.size(); ++i) {
    partial.strata_counts[strata[i]][input.groups[i]] +=
        stats::GroupCounts::Row(input.predictions[i]);
  }
  if (!config.score_column.empty()) {
    for (size_t i = 0; i < scores.size(); ++i) {
      partial.score_series[input.groups[i]].Append(
          scores[i], static_cast<uint8_t>(input.labels[i]));
    }
    partial.scores = std::move(scores);
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
  scores_.insert(scores_.end(), partial.scores.begin(),
                 partial.scores.end());
}

}  // namespace fairlaw::audit
