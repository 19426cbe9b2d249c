#include "core/suite.h"

#include "audit/source.h"
#include "base/string_util.h"
#include "metrics/fairness_metric.h"
#include "obs/obs.h"

namespace fairlaw {

std::string SuiteReport::Render() const {
  std::string out = audit.Render();
  if (!proxies.empty()) {
    out += "--- proxy audit (§IV-B) ---\n";
    for (const audit::ProxyFinding& finding : proxies) {
      out += "  " + finding.feature + ": cramers_v=" +
             FormatDouble(finding.cramers_v, 4) + " mi=" +
             FormatDouble(finding.mutual_information, 4) +
             " predictability_gain=" +
             FormatDouble(finding.predictability_gain, 4) +
             (finding.flagged ? "  <-- PROXY" : "") + "\n";
    }
  }
  if (subgroups.has_value()) {
    out += "--- subgroup audit (§IV-C) ---\n";
    out += "  examined " + std::to_string(subgroups->subgroups_examined) +
           " conjunctions (" +
           std::to_string(subgroups->subgroups_skipped_small) +
           " skipped for support)\n";
    size_t shown = 0;
    for (const audit::SubgroupFinding& finding : subgroups->findings) {
      if (shown++ >= 5) break;
      out += "  " + finding.subgroup.ToString() + ": n=" +
             std::to_string(finding.count) + " rate=" +
             FormatDouble(finding.selection_rate, 4) + " gap=" +
             FormatDouble(finding.gap, 4) + "\n";
    }
  }
  if (sampling.has_value()) {
    out += "--- sampling adequacy (§IV-F) ---\n";
    for (const audit::GroupSupport& support : sampling->groups) {
      out += "  " + support.group + ": n=" + std::to_string(support.count) +
             " ci_halfwidth=" + FormatDouble(support.ci_halfwidth, 4) +
             (support.adequate ? "" : "  <-- INADEQUATE") + "\n";
    }
  }
  if (four_fifths.has_value()) {
    out += "--- four-fifths screen (§II-B) ---\n";
    out += legal::RenderFourFifths(*four_fifths);
  }
  if (representation.has_value()) {
    out += "--- representation vs population (§IV-F) ---\n";
    for (const audit::GroupRepresentation& rep : representation->groups) {
      out += "  " + rep.group + ": data " +
             FormatDouble(rep.data_share, 4) + " vs reference " +
             FormatDouble(rep.reference_share, 4) + " (ratio " +
             FormatDouble(rep.representation_ratio, 4) + ")" +
             (rep.under_represented ? "  <-- UNDER-REPRESENTED" : "") +
             "\n";
    }
    out += "  TV=" + FormatDouble(representation->total_variation, 4) +
           " hellinger=" + FormatDouble(representation->hellinger, 4) +
           " chi2_p=" + FormatDouble(representation->chi_square_p_value, 4) +
           "\n";
  }
  out += all_clear ? "SUITE VERDICT: all clear\n"
                   : "SUITE VERDICT: issues found\n";
  return out;
}

Result<SuiteReport> RunFairnessSuite(const data::Table& table,
                                     const SuiteConfig& config) {
  obs::TraceSpan span("fairness_suite");
  SuiteReport report;
  FAIRLAW_ASSIGN_OR_RETURN(
      report.audit,
      audit::Auditor::Run(audit::AuditSource::FromTable(table), config.audit));
  report.all_clear = report.audit.all_satisfied;

  if (!config.proxy_candidates.empty()) {
    obs::TraceSpan proxies_span("audit_proxies");
    FAIRLAW_ASSIGN_OR_RETURN(
        report.proxies,
        audit::DetectProxies(table, config.audit.protected_column,
                             config.proxy_candidates, config.proxy_options,
                             config.audit.num_threads));
    for (const audit::ProxyFinding& finding : report.proxies) {
      if (finding.flagged) report.all_clear = false;
    }
  }

  if (!config.subgroup_columns.empty()) {
    FAIRLAW_ASSIGN_OR_RETURN(
        report.subgroups,
        audit::AuditSubgroups(table, config.subgroup_columns,
                              config.audit.prediction_column,
                              config.subgroup_options));
    if (report.subgroups->any_violation) report.all_clear = false;
  }

  // The screens read the per-group tallies the audit already made: the
  // groups of its disparate_impact_ratio report.
  FAIRLAW_ASSIGN_OR_RETURN(const metrics::MetricReport* impact,
                           report.audit.Find("disparate_impact_ratio"));
  if (config.check_sampling) {
    FAIRLAW_ASSIGN_OR_RETURN(
        report.sampling,
        audit::AssessSamplingAdequacy(impact->groups,
                                      config.sampling_options));
    // Inadequate sampling is a warning about estimate quality, not a
    // fairness violation; it does not flip all_clear.
  }
  if (config.check_four_fifths) {
    FAIRLAW_ASSIGN_OR_RETURN(report.four_fifths,
                             legal::FourFifthsTest(impact->groups));
    if (!report.four_fifths->passed) report.all_clear = false;
  }
  if (!config.population_shares.empty()) {
    FAIRLAW_ASSIGN_OR_RETURN(
        report.representation,
        audit::AuditRepresentation(impact->groups, config.population_shares,
                                   config.representation_options));
    if (!report.representation->composition_ok) report.all_clear = false;
  }
  return report;
}

}  // namespace fairlaw
