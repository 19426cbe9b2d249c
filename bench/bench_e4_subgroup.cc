// E4 — §IV-C intersectional / subgroup fairness. Part 1: on the
// gerrymandered promotion scenario, marginal audits pass while the
// depth-2 subgroup audit exposes the penalized cells. Part 2: the
// combinatorial cost of exhaustive subgroup auditing as depth and
// attribute count grow (the exponential complexity §IV-C warns about),
// with wall-clock measurements. Each row's conjunction count must equal
// the closed form audit::CountConjunctions; the binary exits 1 if any
// row differs.
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>

#include "audit/auditor.h"
#include "audit/source.h"
#include "audit/subgroup.h"
#include "data/column.h"
#include "obs/obs.h"
#include "simulation/scenarios.h"
#include "stats/rng.h"

namespace {

using fairlaw::stats::Rng;
namespace audit = fairlaw::audit;
namespace data = fairlaw::data;
namespace sim = fairlaw::sim;

void Part1() {
  std::printf("--- part 1: gerrymandered promotion scenario ---\n");
  Rng rng(11);
  sim::PromotionOptions options;
  options.n = 30000;
  options.subgroup_bias = 1.5;
  sim::ScenarioData scenario =
      sim::MakePromotionScenario(options, &rng).ValueOrDie();

  for (const char* attribute : {"gender", "race"}) {
    audit::AuditConfig config;
    config.protected_column = attribute;
    config.prediction_column = "promoted";
    audit::AuditResult result =
        audit::Auditor::Run(audit::AuditSource::FromTable(scenario.table),
                            config)
            .ValueOrDie();
    std::printf("marginal audit on %-7s: dp_gap=%.4f -> %s\n",
                attribute,
                result.Find("demographic_parity").ValueOrDie()->max_gap,
                result.Find("demographic_parity").ValueOrDie()->satisfied
                    ? "pass"
                    : "FAIL");
  }
  audit::SubgroupAuditOptions subgroup_options;
  subgroup_options.max_depth = 2;
  audit::SubgroupAuditResult subgroups =
      audit::AuditSubgroups(scenario.table, {"gender", "race"}, "promoted",
                            subgroup_options)
          .ValueOrDie();
  std::printf("depth-2 subgroup audit (%zu conjunctions):\n",
              subgroups.subgroups_examined);
  for (size_t i = 0; i < subgroups.findings.size() && i < 4; ++i) {
    const audit::SubgroupFinding& finding = subgroups.findings[i];
    std::printf("  %-45s n=%-6zu rate=%.4f gap=%.4f\n",
                finding.subgroup.ToString().c_str(), finding.count,
                finding.selection_rate, finding.gap);
  }
}

/// Returns false when some row's examined count differs from
/// CountConjunctions.
bool Part2() {
  std::printf("\n--- part 2: audit cost vs depth / attribute count ---\n");
  std::printf("%-6s %-6s %-14s %-14s %-12s\n", "attrs", "depth",
              "conjunctions", "closed_form", "time_ms");
  Rng rng(13);
  const size_t n = 20000;
  // Synthetic table with 6 categorical attributes of arity 4 + binary
  // prediction.
  std::vector<data::Column> columns;
  std::vector<data::Field> fields;
  std::vector<std::string> attribute_names;
  std::vector<size_t> arities;
  for (int a = 0; a < 6; ++a) {
    std::vector<std::string> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = "v" + std::to_string(rng.UniformInt(4));
    }
    arities.push_back(
        std::set<std::string>(values.begin(), values.end()).size());
    std::string name = "attr" + std::to_string(a);
    attribute_names.push_back(name);
    fields.push_back({name, data::DataType::kString});
    columns.push_back(data::Column::FromStrings(std::move(values)));
  }
  std::vector<int64_t> predictions(n);
  for (size_t i = 0; i < n; ++i) predictions[i] = rng.Bernoulli(0.4);
  fields.push_back({"pred", data::DataType::kInt64});
  columns.push_back(data::Column::FromInt64s(std::move(predictions)));
  data::Table table =
      data::Table::Make(data::Schema::Make(fields).ValueOrDie(),
                        std::move(columns))
          .ValueOrDie();

  bool matches = true;
  for (size_t attrs : {2, 4, 6}) {
    std::vector<std::string> use(attribute_names.begin(),
                                 attribute_names.begin() + attrs);
    const std::vector<size_t> use_arities(arities.begin(),
                                          arities.begin() + attrs);
    for (int depth = 1; depth <= 3; ++depth) {
      audit::SubgroupAuditOptions options;
      options.max_depth = depth;
      options.min_support = 5;
      const uint64_t start_ns = fairlaw::obs::MonotonicNowNs();
      audit::SubgroupAuditResult result =
          audit::AuditSubgroups(table, use, "pred", options).ValueOrDie();
      const double ms =
          static_cast<double>(fairlaw::obs::MonotonicNowNs() - start_ns) /
          1e6;
      const size_t closed_form = audit::CountConjunctions(use_arities, depth);
      std::printf("%-6zu %-6d %-14zu %-14zu %-12.2f\n", attrs, depth,
                  result.subgroups_examined, closed_form, ms);
      matches = matches && result.subgroups_examined == closed_form;
    }
  }
  std::printf("\nExpected shape: conjunction count (and time) grows "
              "exponentially with depth, matching CountConjunctions.\n");
  if (!matches) {
    std::printf("MISMATCH: a conjunction count differs from "
                "CountConjunctions\n");
  }
  return matches;
}

}  // namespace

int main() {
  std::printf("=== E4: intersectional subgroup fairness (SS IV-C) ===\n");
  Part1();
  return Part2() ? 0 : 1;
}
