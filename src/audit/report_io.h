#ifndef FAIRLAW_AUDIT_REPORT_IO_H_
#define FAIRLAW_AUDIT_REPORT_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "base/json_writer.h"
#include "base/result.h"
#include "metrics/calibration_metric.h"
#include "metrics/conditional_metrics.h"
#include "metrics/fairness_metric.h"

namespace fairlaw::audit {

/// Version of the machine-readable report envelope shared by
/// `fairlaw_audit --json`, the core suite export, and every
/// `fairlaw_serve` response. Bump policy (DESIGN.md §15): additive
/// fields only within a version; any removal, rename, or semantic
/// change of an existing field bumps the version. Version 1 was the
/// analyzer artifact schema (PR 6); version 2 adds the audit/serve
/// envelope with `kind`, `findings`, and the optional `obs` snapshot.
inline constexpr int64_t kReportSchemaVersion = 2;

/// Writes one metric report object — the per-metric shape embedded in
/// both the audit findings and the core suite export, kept here so the
/// two emitters can never drift.
void WriteMetricReport(JsonWriter* json, const metrics::MetricReport& report);

/// Writes one conditional (stratified) metric report object.
void WriteConditionalReport(JsonWriter* json,
                            const metrics::ConditionalReport& report);

/// Writes the calibration-within-groups section object.
void WriteCalibrationReport(JsonWriter* json,
                            const metrics::CalibrationReport& report);

/// Writes the score-distribution drift section object (exact or
/// sketch-approximate — the `approximate` field says which).
void WriteScoreDistributionReport(JsonWriter* json,
                                  const ScoreDistributionReport& report);

/// Writes the findings object for an AuditResult: `all_satisfied`,
/// `metrics`, `conditional_metrics`, plus `calibration` and
/// `score_distribution` when the audit produced them.
void WriteAuditFindings(JsonWriter* json, const AuditResult& result);

/// Envelope controls for AuditResultToJson.
struct ReportEnvelopeOptions {
  /// The envelope's `kind` discriminator.
  std::string kind = "audit_report";
  /// Obs counters to snapshot into the envelope's `obs` object (name ->
  /// current value), in the given order; empty omits the object.
  /// Callers must list only schedule-invariant counters — anything that
  /// varies with batch size, chunk size, or thread count would break
  /// the byte-identity contract the envelope is diffed under.
  std::vector<std::string> obs_counters;
};

/// Serializes an AuditResult as the versioned envelope:
/// {"schema_version":2,"kind":...,"findings":{...},"obs":{...}}.
FAIRLAW_NODISCARD Result<std::string> AuditResultToJson(
    const AuditResult& result,
    const ReportEnvelopeOptions& options = ReportEnvelopeOptions{});

/// Writes a status as the "error" member of an open object:
/// "error":{"code":...,"message":...} (serve embeds it in response frames
/// that carry additional routing fields). OK statuses are a caller bug
/// and render with code "ok" rather than failing, so error paths cannot
/// themselves error.
void WriteErrorObject(JsonWriter* json, const Status& status);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_REPORT_IO_H_
