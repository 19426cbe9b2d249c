#include "core/json.h"

#include "audit/proxy.h"
#include "audit/report_io.h"
#include "audit/representation.h"
#include "audit/sampling_adequacy.h"
#include "audit/subgroup.h"
#include "base/json_writer.h"
#include "legal/four_fifths.h"
#include "metrics/conditional_metrics.h"
#include "metrics/fairness_metric.h"

namespace fairlaw {

Result<std::string> SuiteReportToJson(const SuiteReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Field("schema_version", audit::kReportSchemaVersion);
  json.Field("kind", std::string("suite_report"));
  json.Key("findings");
  json.BeginObject();
  json.Field("all_clear", report.all_clear);

  json.Key("metrics");
  json.BeginArray();
  for (const metrics::MetricReport& metric : report.audit.reports) {
    audit::WriteMetricReport(&json, metric);
  }
  json.EndArray();

  json.Key("conditional_metrics");
  json.BeginArray();
  for (const metrics::ConditionalReport& conditional :
       report.audit.conditional_reports) {
    audit::WriteConditionalReport(&json, conditional);
  }
  json.EndArray();

  if (report.audit.calibration.has_value()) {
    json.Key("calibration");
    audit::WriteCalibrationReport(&json, *report.audit.calibration);
  }
  if (report.audit.score_distribution.has_value()) {
    json.Key("score_distribution");
    audit::WriteScoreDistributionReport(&json,
                                        *report.audit.score_distribution);
  }

  json.Key("proxies");
  json.BeginArray();
  for (const audit::ProxyFinding& finding : report.proxies) {
    json.BeginObject();
    json.Field("feature", finding.feature);
    json.Field("cramers_v", finding.cramers_v);
    json.Field("mutual_information", finding.mutual_information);
    json.Field("predictability_gain", finding.predictability_gain);
    json.Field("flagged", finding.flagged);
    json.EndObject();
  }
  json.EndArray();

  if (report.subgroups.has_value()) {
    json.Key("subgroups");
    json.BeginObject();
    json.Field("examined",
               static_cast<int64_t>(report.subgroups->subgroups_examined));
    json.Field("any_violation", report.subgroups->any_violation);
    json.Key("findings");
    json.BeginArray();
    for (const audit::SubgroupFinding& finding :
         report.subgroups->findings) {
      json.BeginObject();
      json.Field("subgroup", finding.subgroup.ToString());
      json.Field("count", static_cast<int64_t>(finding.count));
      json.Field("selection_rate", finding.selection_rate);
      json.Field("gap", finding.gap);
      json.Field("weighted_gap", finding.weighted_gap);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }

  if (report.sampling.has_value()) {
    json.Key("sampling");
    json.BeginArray();
    for (const audit::GroupSupport& support : report.sampling->groups) {
      json.BeginObject();
      json.Field("group", support.group);
      json.Field("count", static_cast<int64_t>(support.count));
      json.Field("ci_halfwidth", support.ci_halfwidth);
      json.Field("adequate", support.adequate);
      json.EndObject();
    }
    json.EndArray();
  }

  if (report.four_fifths.has_value()) {
    json.Key("four_fifths");
    json.BeginObject();
    json.Field("reference_group", report.four_fifths->reference_group);
    json.Field("passed", report.four_fifths->passed);
    json.Field("adverse_impact_indicated",
               report.four_fifths->adverse_impact_indicated);
    json.Key("groups");
    json.BeginArray();
    for (const legal::FourFifthsGroup& group : report.four_fifths->groups) {
      json.BeginObject();
      json.Field("group", group.group);
      json.Field("selection_rate", group.selection_rate);
      json.Field("impact_ratio", group.impact_ratio);
      json.Field("below_threshold", group.below_threshold);
      json.Field("p_value", group.significance.p_value);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }

  if (report.representation.has_value()) {
    json.Key("representation");
    json.BeginObject();
    json.Field("composition_ok", report.representation->composition_ok);
    json.Field("total_variation", report.representation->total_variation);
    json.Field("hellinger", report.representation->hellinger);
    json.Field("chi_square_p_value",
               report.representation->chi_square_p_value);
    json.Key("groups");
    json.BeginArray();
    for (const audit::GroupRepresentation& group :
         report.representation->groups) {
      json.BeginObject();
      json.Field("group", group.group);
      json.Field("data_share", group.data_share);
      json.Field("reference_share", group.reference_share);
      json.Field("representation_ratio", group.representation_ratio);
      json.Field("under_represented", group.under_represented);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }

  json.EndObject();  // findings
  json.EndObject();  // envelope
  return json.Finish();
}

}  // namespace fairlaw
