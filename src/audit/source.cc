#include "audit/source.h"

#include <string>
#include <utility>

#include "audit/evaluate.h"
#include "audit/morsel.h"
#include "audit/partials.h"
#include "obs/obs.h"

namespace fairlaw::audit {
namespace {

/// The engine over one input's chunks: ProcessChunk per chunk on the
/// morsel loop, partials folded in chunk order, then one evaluation of
/// the merged partials. Morsels may run on pool workers whose span stack
/// is empty; `parent_path`, captured on the scheduling thread, keeps the
/// exported span tree identical for every thread count.
Result<AuditResult> RunMorselAudit(ChunkStream& chunks,
                                   const AuditConfig& config,
                                   const std::string& parent_path) {
  MergedPartials merged;
  FAIRLAW_RETURN_NOT_OK(RunMorsels(
      chunks, config.num_threads,
      [&config, &parent_path](const data::Table& chunk) {
        return ProcessChunk(chunk, config, parent_path);
      },
      [&merged](ChunkPartial partial) {
        obs::GetCounter("audit.morsels_scheduled")->Increment();
        merged.Fold(std::move(partial));
      }));
  return EvaluateMergedPartials(merged, config, parent_path);
}

Result<AuditResult> RunTable(const data::Table& table,
                             const AuditConfig& config) {
  obs::TraceSpan run_span("run_audit");
  obs::GetCounter("audit.runs")->Increment();
  obs::GetCounter("audit.rows_audited")->Increment(table.num_rows());
  if (table.num_rows() == 0) return EmptyAuditError(table, config);
  ChunkStream chunks(table, config.chunk_rows);
  return RunMorselAudit(chunks, config, obs::CurrentPath());
}

/// Streams the CSV: peak memory is the in-flight chunks plus the merged
/// accumulators, never the file.
Result<AuditResult> RunCsv(const AuditSource::CsvSpec& spec,
                           const AuditConfig& config) {
  obs::TraceSpan run_span("run_audit");
  obs::GetCounter("audit.runs")->Increment();
  data::CsvChunkReader::Options reader_options;
  reader_options.csv = spec.options;
  reader_options.chunk_rows = config.chunk_rows;
  FAIRLAW_ASSIGN_OR_RETURN(
      data::CsvChunkReader reader,
      data::CsvChunkReader::Make(spec.path, reader_options));
  obs::GetCounter("audit.rows_audited")->Increment(reader.num_rows());
  if (reader.num_rows() == 0) {
    data::TableBuilder builder(reader.schema());
    FAIRLAW_ASSIGN_OR_RETURN(data::Table empty, builder.Finish());
    return EmptyAuditError(empty, config);
  }
  ChunkStream chunks(&reader, config.chunk_rows);
  return RunMorselAudit(chunks, config, obs::CurrentPath());
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
