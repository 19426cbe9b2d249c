#include "audit/report_io.h"

#include "metrics/calibration_metric.h"
#include "obs/obs.h"

namespace fairlaw::audit {

void WriteMetricReport(JsonWriter* json,
                       const metrics::MetricReport& report) {
  json->BeginObject();
  json->Field("metric", report.metric_name);
  json->Field("satisfied", report.satisfied);
  json->Field("max_gap", report.max_gap);
  json->Field("min_ratio", report.min_ratio);
  json->Field("tolerance", report.tolerance);
  if (!report.detail.empty()) json->Field("detail", report.detail);
  json->Key("groups");
  json->BeginArray();
  for (const metrics::GroupStats& gs : report.groups) {
    json->BeginObject();
    json->Field("group", gs.group);
    json->Field("count", gs.count);
    json->Field("selection_rate", gs.selection_rate);
    if (gs.actual_positives + gs.actual_negatives > 0) {
      json->Field("tpr", gs.tpr);
      json->Field("fpr", gs.fpr);
      json->Field("ppv", gs.ppv);
    }
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

void WriteConditionalReport(JsonWriter* json,
                            const metrics::ConditionalReport& report) {
  json->BeginObject();
  json->Field("metric", report.metric_name);
  json->Field("satisfied", report.satisfied);
  json->Field("max_gap", report.max_gap);
  json->Key("strata");
  json->BeginArray();
  for (const metrics::StratumReport& stratum : report.strata) {
    json->BeginObject();
    json->Field("stratum", stratum.stratum);
    json->Field("satisfied", stratum.report.satisfied);
    json->Field("gap", stratum.report.max_gap);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

void WriteAuditFindings(JsonWriter* json, const AuditResult& result) {
  json->BeginObject();
  json->Field("all_satisfied", result.all_satisfied);

  json->Key("metrics");
  json->BeginArray();
  for (const metrics::MetricReport& metric : result.reports) {
    WriteMetricReport(json, metric);
  }
  json->EndArray();

  json->Key("conditional_metrics");
  json->BeginArray();
  for (const metrics::ConditionalReport& conditional :
       result.conditional_reports) {
    WriteConditionalReport(json, conditional);
  }
  json->EndArray();

  if (result.calibration.has_value()) {
    json->Key("calibration");
    WriteCalibrationReport(json, *result.calibration);
  }

  if (result.score_distribution.has_value()) {
    json->Key("score_distribution");
    WriteScoreDistributionReport(json, *result.score_distribution);
  }

  json->EndObject();
}

void WriteCalibrationReport(JsonWriter* json,
                            const metrics::CalibrationReport& report) {
  json->BeginObject();
  json->Field("satisfied", report.satisfied);
  json->Field("max_ece", report.max_ece);
  json->Field("ece_gap", report.ece_gap);
  json->Key("groups");
  json->BeginArray();
  for (const metrics::GroupCalibration& gc : report.groups) {
    json->BeginObject();
    json->Field("group", gc.group);
    json->Field("ece", gc.ece);
    json->Field("mean_score", gc.mean_score);
    json->Field("base_rate", gc.positive_rate);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

void WriteScoreDistributionReport(JsonWriter* json,
                                  const ScoreDistributionReport& report) {
  json->BeginObject();
  json->Field("satisfied", report.satisfied);
  json->Field("max_wasserstein1", report.max_wasserstein1);
  json->Field("max_ks", report.max_ks);
  json->Field("tolerance", report.tolerance);
  json->Field("approximate", report.approximate);
  json->Key("groups");
  json->BeginArray();
  for (const GroupScoreDistance& gd : report.groups) {
    json->BeginObject();
    json->Field("group", gd.group);
    json->Field("count", static_cast<int64_t>(gd.count));
    json->Field("wasserstein1", gd.wasserstein1);
    json->Field("ks", gd.ks);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

Result<std::string> AuditResultToJson(const AuditResult& result,
                                      const ReportEnvelopeOptions& options) {
  JsonWriter json;
  json.BeginObject();
  json.Field("schema_version", kReportSchemaVersion);
  json.Field("kind", options.kind);
  json.Key("findings");
  WriteAuditFindings(&json, result);
  if (!options.obs_counters.empty()) {
    json.Key("obs");
    json.BeginObject();
    for (const std::string& name : options.obs_counters) {
      // detcheck: allow-obs-read-in-output (opt-in profiling snapshot; the caller names the counters and owns their invariance)
      json.Field(name, static_cast<int64_t>(obs::GetCounter(name)->Value()));
    }
    json.EndObject();
  }
  json.EndObject();
  return json.Finish();
}

void WriteErrorObject(JsonWriter* json, const Status& status) {
  json->Key("error");
  json->BeginObject();
  json->Field("code", std::string(StatusCodeToString(status.code())));
  json->Field("message", status.message());
  json->EndObject();
}

}  // namespace fairlaw::audit
