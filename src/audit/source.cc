#include "audit/source.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "audit/evaluate.h"
#include "audit/morsel.h"
#include "audit/partials.h"
#include "obs/obs.h"

namespace fairlaw::audit {
namespace {

/// A table is one chunk: one ProcessChunk folded into the merged
/// partials, then one evaluation, on this thread but for the
/// score-distribution loop, which MorselPool may give a pool.
Result<AuditResult> RunTable(const data::Table& table,
                             const AuditConfig& config) {
  obs::TraceSpan run_span("run_audit");
  obs::GetCounter("audit.runs")->Increment();
  obs::GetCounter("audit.rows_audited")->Increment(table.num_rows());
  if (table.num_rows() == 0) return EmptyAuditError(table.schema(), config);
  const std::string parent_path = obs::CurrentPath();
  MergedPartials merged;
  obs::GetCounter("audit.morsels_scheduled")->Increment();
  merged.Fold(ProcessChunk(table, config, parent_path));
  return EvaluateMergedPartials(merged, config, parent_path);
}

/// Streams the CSV through the morsel loop (DESIGN.md §14): a boundary
/// scan and a schema guess on this thread, then one pass in which each
/// chunk is parsed under the guessed schema and run through
/// ProcessChunk on the pool, partials folded in chunk order, then one
/// evaluation of the merged partials. When the chunks' type flags
/// resolve another schema, the merged partials are dropped and a second
/// pass reads every chunk again under it. Peak memory is the in-flight
/// chunks plus the merged accumulators, never the file. Morsels may run
/// on pool workers whose span stack is empty; `parent_path` (and the
/// reader's own, both captured on this thread) keeps the exported span
/// tree identical for every thread count.
Result<AuditResult> RunCsv(const AuditSource::CsvSpec& spec,
                           const AuditConfig& config) {
  obs::TraceSpan run_span("run_audit");
  obs::GetCounter("audit.runs")->Increment();
  data::CsvChunkReader::Options reader_options;
  reader_options.csv = spec.options;
  reader_options.chunk_rows = config.chunk_rows;
  FAIRLAW_ASSIGN_OR_RETURN(
      data::CsvChunkReader reader,
      data::CsvChunkReader::Scan(spec.path, reader_options));
  const std::unique_ptr<ThreadPool> pool =
      MorselPool(config.num_threads, reader.num_chunks());
  const std::string parent_path = obs::CurrentPath();
  MergedPartials merged;
  auto process = [&config, &parent_path](const data::Table& chunk) {
    return ProcessChunk(chunk, config, parent_path);
  };
  auto fold = [&merged](ChunkPartial partial) {
    obs::GetCounter("audit.morsels_scheduled")->Increment();
    merged.Fold(std::move(partial));
  };
  bool guess_held = false;
  if (reader.has_guess()) {
    FAIRLAW_RETURN_NOT_OK(RunMorsels(
        reader.num_chunks(), pool.get(),
        [&reader](size_t i) { return reader.ReadGuessedChunk(i); }, process,
        fold));
    FAIRLAW_ASSIGN_OR_RETURN(guess_held, reader.ConfirmGuess());
    if (!guess_held) merged = MergedPartials();
  } else {
    FAIRLAW_RETURN_NOT_OK(reader.InferSchema(pool.get()));
  }
  obs::GetCounter("audit.rows_audited")->Increment(reader.num_rows());
  if (reader.num_rows() == 0) return EmptyAuditError(reader.schema(), config);
  if (!guess_held) {
    FAIRLAW_RETURN_NOT_OK(RunMorsels(
        reader.num_chunks(), pool.get(),
        [&reader](size_t i) -> Result<std::optional<data::Table>> {
          FAIRLAW_ASSIGN_OR_RETURN(data::Table chunk, reader.ReadChunk(i));
          return std::optional<data::Table>(std::move(chunk));
        },
        process, fold));
  }
  return EvaluateMergedPartials(merged, config, parent_path);
}

}  // namespace

Result<AuditResult> Auditor::Run(const AuditSource& source,
                                 const AuditConfig& config) {
  FAIRLAW_RETURN_NOT_OK(config.Validate());
  struct Dispatch {
    const AuditConfig& config;
    Result<AuditResult> operator()(const data::Table* table) const {
      return RunTable(*table, config);
    }
    Result<AuditResult> operator()(const AuditSource::CsvSpec& spec) const {
      return RunCsv(spec, config);
    }
    Result<AuditResult> operator()(const WindowedPartial* window) const {
      obs::TraceSpan run_span("run_audit");
      obs::GetCounter("audit.runs")->Increment();
      obs::GetCounter("audit.rows_audited")->Increment(window->num_rows);
      return RunWindowedAudit(*window, config, obs::CurrentPath());
    }
  };
  return std::visit(Dispatch{config}, source.value());
}

}  // namespace fairlaw::audit
