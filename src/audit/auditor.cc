#include "audit/auditor.h"

#include <cstdint>
#include <string_view>
#include <utility>

#include "audit/partials.h"
#include "base/string_util.h"

namespace fairlaw::audit {

Status AuditConfig::Validate() const {
  if (protected_column.empty()) {
    return Status::Invalid("AuditConfig: protected_column must be set");
  }
  if (prediction_column.empty()) {
    return Status::Invalid("AuditConfig: prediction_column must be set");
  }
  for (const std::string& column : strata_columns) {
    if (column.empty()) {
      return Status::Invalid(
          "AuditConfig: strata_columns contains an empty column name");
    }
  }
  if (tolerance < 0.0 || tolerance > 1.0) {
    return Status::Invalid("AuditConfig: tolerance must lie in [0,1], got " +
                           FormatDouble(tolerance, 4));
  }
  if (di_threshold <= 0.0 || di_threshold > 1.0) {
    return Status::Invalid(
        "AuditConfig: di_threshold must lie in (0,1], got " +
        FormatDouble(di_threshold, 4));
  }
  if (calibration_bins == 0) {
    return Status::Invalid("AuditConfig: calibration_bins must be > 0");
  }
  if (calibration_tolerance < 0.0 || calibration_tolerance > 1.0) {
    return Status::Invalid(
        "AuditConfig: calibration_tolerance must lie in [0,1], got " +
        FormatDouble(calibration_tolerance, 4));
  }
  if (audit_score_distribution && score_column.empty()) {
    return Status::Invalid(
        "AuditConfig: audit_score_distribution requires score_column");
  }
  if (score_distribution_tolerance < 0.0 || score_distribution_tolerance > 1.0) {
    return Status::Invalid(
        "AuditConfig: score_distribution_tolerance must lie in [0,1], got " +
        FormatDouble(score_distribution_tolerance, 4));
  }
  if (!score_column.empty() && label_column.empty()) {
    return Status::Invalid(
        "AuditConfig: score_column requires label_column (the calibration "
        "audit needs observed outcomes)");
  }
  if (min_stratum_size == 0) {
    return Status::Invalid("AuditConfig: min_stratum_size must be >= 1");
  }
  return Status::OK();
}

Result<metrics::MetricInput> MetricInputFromTable(
    const data::Table& table, const std::string& protected_column,
    const std::string& prediction_column, const std::string& label_column) {
  metrics::MetricInput input;
  FAIRLAW_ASSIGN_OR_RETURN(data::ColumnKeys groups,
                           GroupKeys(table, protected_column));
  input.groups.reserve(groups.codes.size());
  for (uint32_t code : groups.codes) input.groups.push_back(groups.keys[code]);
  FAIRLAW_ASSIGN_OR_RETURN(input.predictions,
                           BinaryColumn(table, prediction_column));
  if (!label_column.empty()) {
    FAIRLAW_ASSIGN_OR_RETURN(input.labels, BinaryColumn(table, label_column));
  }
  FAIRLAW_RETURN_NOT_OK(input.Validate(/*require_labels=*/false));
  return input;
}

std::string AuditResult::Render() const {
  std::string out;
  out += "=== fairness audit: " +
         std::string(all_satisfied ? "ALL SATISFIED" : "VIOLATIONS FOUND") +
         " ===\n";
  for (const metrics::MetricReport& report : reports) {
    out += metrics::RenderReport(report);
  }
  for (const metrics::ConditionalReport& report : conditional_reports) {
    out += metrics::RenderConditionalReport(report);
  }
  if (calibration.has_value()) {
    out += "calibration_within_groups: " +
           std::string(calibration->satisfied ? "SATISFIED" : "VIOLATED") +
           " (max ECE " + FormatDouble(calibration->max_ece, 4) +
           ", gap " + FormatDouble(calibration->ece_gap, 4) + ")\n";
    for (const metrics::GroupCalibration& gc : calibration->groups) {
      out += "  " + gc.group + ": ece=" + FormatDouble(gc.ece, 4) +
             " mean_score=" + FormatDouble(gc.mean_score, 4) +
             " base_rate=" + FormatDouble(gc.positive_rate, 4) + "\n";
    }
  }
  if (score_distribution.has_value()) {
    out += "score_distribution_drift: " +
           std::string(score_distribution->satisfied ? "SATISFIED"
                                                     : "VIOLATED") +
           " (max KS " + FormatDouble(score_distribution->max_ks, 4) +
           " vs tolerance " + FormatDouble(score_distribution->tolerance, 4) +
           ", max W1 " + FormatDouble(score_distribution->max_wasserstein1, 4) +
           (score_distribution->approximate ? ", sketch-approximate" : "") +
           ")\n";
    for (const GroupScoreDistance& gd : score_distribution->groups) {
      out += "  " + gd.group + ": n=" + std::to_string(gd.count) +
             " w1=" + FormatDouble(gd.wasserstein1, 4) +
             " ks=" + FormatDouble(gd.ks, 4) + "\n";
    }
  }
  return out;
}

legal::AuditFindings AuditResult::ToLegalFindings() const {
  legal::AuditFindings findings;
  findings.reports = reports;
  findings.conditional_reports = conditional_reports;
  findings.all_satisfied = all_satisfied;
  return findings;
}

Result<const metrics::MetricReport*> AuditResult::Find(
    std::string_view name) const {
  for (const metrics::MetricReport& report : reports) {
    if (report.metric_name == name) return &report;
  }
  return Status::NotFound("audit has no metric named '" + std::string(name) +
                          "'");
}

}  // namespace fairlaw::audit
