// §IV-C demo: the paper's exact gerrymandering pattern — promotions look
// fair on gender alone and on race alone, but non-Caucasian men and
// Caucasian women are systematically disfavored. The marginal audits
// pass; the subgroup audit catches it.
#include <cstdio>

#include "audit/auditor.h"
#include "audit/sampling_adequacy.h"
#include "audit/source.h"
#include "audit/subgroup.h"
#include "simulation/scenarios.h"

int main() {
  using fairlaw::stats::Rng;
  namespace audit = fairlaw::audit;
  namespace sim = fairlaw::sim;

  Rng rng(5);
  sim::PromotionOptions options;
  options.n = 24000;
  options.subgroup_bias = 1.4;
  sim::ScenarioData scenario =
      sim::MakePromotionScenario(options, &rng).ValueOrDie();
  std::printf("promotion scenario: %zu employees, bias injected against "
              "(male & non_caucasian) and (female & caucasian)\n\n",
              scenario.table.num_rows());

  std::printf("--- marginal audits (what a naive review would run) ---\n");
  for (const char* attribute : {"gender", "race"}) {
    audit::AuditConfig config;
    config.protected_column = attribute;
    config.prediction_column = "promoted";
    audit::AuditResult result =
        audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table),
                            config)
            .ValueOrDie();
    const auto* dp = result.Find("demographic_parity").ValueOrDie();
    std::printf("  %-7s: dp_gap=%.4f -> %s\n", attribute,
                dp->max_gap, dp->satisfied ? "looks fair" : "VIOLATED");
  }

  std::printf("\n--- subgroup audit at depth 2 (SS IV-C) ---\n");
  audit::SubgroupAuditOptions subgroup_options;
  subgroup_options.max_depth = 2;
  subgroup_options.tolerance = 0.05;
  audit::SubgroupAuditResult subgroups =
      audit::AuditSubgroups(scenario.table, {"gender", "race"}, "promoted",
                            subgroup_options)
          .ValueOrDie();
  std::printf("examined %zu conjunctions; violations:\n",
              subgroups.subgroups_examined);
  for (const auto& finding : subgroups.Violations(0.05)) {
    std::printf("  %-45s n=%-6zu rate=%.4f (overall %.4f) gap=%.4f\n",
                finding.subgroup.ToString().c_str(), finding.count,
                finding.selection_rate, finding.overall_rate, finding.gap);
  }

  std::printf("\n--- sampling adequacy of the subgroup estimates (SS IV-F) "
              "---\n");
  fairlaw::metrics::MetricInput input =
      audit::MetricInputFromTable(scenario.table, "gender", "promoted", "")
          .ValueOrDie();
  // Re-key by the intersectional cell for the support check.
  const auto* race_col = scenario.table.GetColumn("race").ValueOrDie();
  for (size_t i = 0; i < input.groups.size(); ++i) {
    input.groups[i] += "|" + race_col->GetString(i).ValueOrDie();
  }
  audit::SamplingReport sampling =
      audit::AssessSamplingAdequacy(input).ValueOrDie();
  for (const auto& support : sampling.groups) {
    std::printf("  %-28s n=%-6zu ci_halfwidth=%.4f %s\n",
                support.group.c_str(), support.count, support.ci_halfwidth,
                support.adequate ? "" : "<- too small to trust");
  }
  return 0;
}
