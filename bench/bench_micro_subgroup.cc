// Microbenchmarks for the subgroup (gerrymandering) auditor: cost vs
// enumeration depth and row count — the computational face of §IV-C.
//
// Two modes:
//   * with any --benchmark_* flag: the usual google-benchmark suite.
//   * otherwise: a before/after kernel comparison that times the scalar
//     rowwise enumerator (the pre-kernel implementation, kept as
//     AuditSubgroupsRowwise) against the cell-tally lattice walk on the
//     same table, verifies the findings are identical, and writes a
//     machine-readable JSON record (default BENCH_subgroup.json; see
//     README "Benchmark JSON output"). Flags: --out=PATH --rows=N
//     --attrs=N --reps=N.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <vector>

#include "audit/subgroup.h"
#include "base/json_writer.h"
#include "base/string_util.h"
#include "best_of.h"
#include "data/column.h"
#include "obs/obs.h"
#include "stats/rng.h"
#include "support/subgroup_rowwise.h"

namespace {

using fairlaw::bench::BestOfEachNs;
using fairlaw::stats::Rng;
namespace audit = fairlaw::audit;
namespace data = fairlaw::data;

data::Table MakeTable(size_t rows, size_t attrs, size_t arity) {
  Rng rng(13);
  std::vector<data::Field> fields;
  std::vector<data::Column> columns;
  for (size_t a = 0; a < attrs; ++a) {
    std::vector<std::string> values(rows);
    for (size_t i = 0; i < rows; ++i) {
      values[i] = "v" + std::to_string(rng.UniformInt(arity));
    }
    fields.push_back({"attr" + std::to_string(a),
                      data::DataType::kString});
    columns.push_back(data::Column::FromStrings(std::move(values)));
  }
  std::vector<int64_t> predictions(rows);
  for (size_t i = 0; i < rows; ++i) predictions[i] = rng.Bernoulli(0.4);
  fields.push_back({"pred", data::DataType::kInt64});
  columns.push_back(data::Column::FromInt64s(std::move(predictions)));
  return data::Table::Make(data::Schema::Make(fields).ValueOrDie(),
                           std::move(columns))
      .ValueOrDie();
}

std::vector<std::string> AttrNames(size_t attrs) {
  std::vector<std::string> names;
  for (size_t a = 0; a < attrs; ++a) {
    names.push_back("attr" + std::to_string(a));
  }
  return names;
}

void BM_SubgroupAuditDepth(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  data::Table table = MakeTable(10000, 5, 3);
  std::vector<std::string> attrs = AttrNames(5);
  audit::SubgroupAuditOptions options;
  options.max_depth = depth;
  options.min_support = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        audit::AuditSubgroups(table, attrs, "pred", options).ValueOrDie());
  }
}
BENCHMARK(BM_SubgroupAuditDepth)->DenseRange(1, 4);

void BM_SubgroupAuditRows(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  data::Table table = MakeTable(rows, 3, 3);
  std::vector<std::string> attrs = AttrNames(3);
  audit::SubgroupAuditOptions options;
  options.max_depth = 2;
  options.min_support = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        audit::AuditSubgroups(table, attrs, "pred", options).ValueOrDie());
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_SubgroupAuditRows)->Range(1000, 64000)->Complexity();

void BM_SubgroupAuditRowwise(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  data::Table table = MakeTable(rows, 3, 3);
  std::vector<std::string> attrs = AttrNames(3);
  audit::SubgroupAuditOptions options;
  options.max_depth = 2;
  options.min_support = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        audit::AuditSubgroupsRowwise(table, attrs, "pred", options)
            .ValueOrDie());
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_SubgroupAuditRowwise)->Range(1000, 64000)->Complexity();

// ---------------------------------------------------------------------------
// JSON comparison harness (default mode).

/// Lattice walks per timed call, and the minimum wall time of all the
/// interleaved rounds.
constexpr size_t kWalkBatch = 32;
constexpr int64_t kMinRoundsNs = 2'000'000'000;

struct HarnessConfig {
  std::string out = "BENCH_subgroup.json";
  size_t rows = 100000;
  size_t attrs = 4;
  size_t reps = 3;
};

bool SameFindings(const audit::SubgroupAuditResult& a,
                  const audit::SubgroupAuditResult& b) {
  if (a.subgroups_examined != b.subgroups_examined ||
      a.subgroups_skipped_small != b.subgroups_skipped_small ||
      a.any_violation != b.any_violation ||
      a.findings.size() != b.findings.size()) {
    return false;
  }
  for (size_t i = 0; i < a.findings.size(); ++i) {
    const audit::SubgroupFinding& fa = a.findings[i];
    const audit::SubgroupFinding& fb = b.findings[i];
    if (fa.subgroup.conditions != fb.subgroup.conditions ||
        fa.count != fb.count || fa.selection_rate != fb.selection_rate ||
        fa.gap != fb.gap || fa.weighted_gap != fb.weighted_gap) {
      return false;
    }
  }
  return true;
}

int RunComparison(const HarnessConfig& config) {
  const data::Table table = MakeTable(config.rows, config.attrs, 3);
  const std::vector<std::string> attrs = AttrNames(config.attrs);
  audit::SubgroupAuditOptions options;
  options.max_depth = 3;
  options.min_support = 5;

  audit::SubgroupAuditResult baseline_result =
      audit::AuditSubgroupsRowwise(table, attrs, "pred", options)
          .ValueOrDie();
  audit::SubgroupAuditResult walk_result =
      audit::AuditSubgroups(table, attrs, "pred", options).ValueOrDie();
  const bool identical = SameFindings(baseline_result, walk_result);

  // The gate divides the row-wise by the walk time, and the probe cost
  // (DESIGN.md §10 budget: < 2%) compares the lattice walk with the obs
  // probes live and disabled through the runtime kill switch, so the
  // three legs run interleaved: at least --reps rounds and kMinRoundsNs
  // in all. A walk call runs kWalkBatch walks, about one row-wise
  // pass of work, so every leg samples the machine for as long.
  auto walks = [&] {
    for (size_t b = 0; b < kWalkBatch; ++b) {
      benchmark::DoNotOptimize(
          audit::AuditSubgroups(table, attrs, "pred", options).ValueOrDie());
    }
  };
  const std::vector<int64_t> leg_ns = BestOfEachNs(
      config.reps,
      {[&] {
         benchmark::DoNotOptimize(
             audit::AuditSubgroupsRowwise(table, attrs, "pred", options)
                 .ValueOrDie());
       },
       walks,
       [&] {
         fairlaw::obs::SetEnabled(false);
         walks();
         fairlaw::obs::SetEnabled(true);
       }},
      kMinRoundsNs);
  const int64_t baseline_ns = leg_ns[0];
  const int64_t walk_ns = leg_ns[1] / static_cast<int64_t>(kWalkBatch);
  const int64_t obs_off_ns = leg_ns[2] / static_cast<int64_t>(kWalkBatch);
  const double obs_overhead_pct =
      obs_off_ns > 0 ? (static_cast<double>(walk_ns) -
                        static_cast<double>(obs_off_ns)) /
                           static_cast<double>(obs_off_ns) * 100.0
                     : 0.0;

  fairlaw::JsonWriter writer;
  writer.BeginObject();
  writer.Field("bench", std::string("subgroup_enumeration"));
  writer.Field("rows", static_cast<int64_t>(config.rows));
  writer.Field("attrs", static_cast<int64_t>(config.attrs));
  writer.Field("arity", static_cast<int64_t>(3));
  writer.Field("max_depth", static_cast<int64_t>(options.max_depth));
  writer.Field("reps", static_cast<int64_t>(config.reps));
  writer.Field("subgroups_examined",
               static_cast<int64_t>(walk_result.subgroups_examined));
  writer.Field("baseline_rowwise_ns", baseline_ns);
  writer.Field("walk_ns", walk_ns);
  writer.Field("speedup", static_cast<double>(baseline_ns) /
                              static_cast<double>(walk_ns));
  writer.Field("obs_off_ns", obs_off_ns);
  writer.Field("obs_overhead_pct", obs_overhead_pct);
  writer.Field("identical_results", identical);
  writer.EndObject();
  const std::string json = writer.Finish().ValueOrDie();

  std::ofstream out(config.out, std::ios::trunc);
  out << json << "\n";
  if (!out) {
    std::fprintf(stderr, "bench_micro_subgroup: cannot write %s\n",
                 config.out.c_str());
    return 1;
  }
  std::printf("%s\n", json.c_str());
  if (!identical) {
    std::fprintf(stderr, "bench_micro_subgroup: rowwise and walk results "
                         "DIFFER — kernel bug\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench_mode = false;
  HarnessConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--benchmark", 0) == 0) {
      gbench_mode = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      config.out = std::string(arg.substr(6));
    } else if (arg.rfind("--rows=", 0) == 0) {
      config.rows = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(7)).ValueOrDie());
    } else if (arg.rfind("--attrs=", 0) == 0) {
      config.attrs = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(8)).ValueOrDie());
    } else if (arg.rfind("--reps=", 0) == 0) {
      config.reps = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(7)).ValueOrDie());
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_subgroup [--benchmark_* flags] "
                   "[--out=PATH] [--rows=N] [--attrs=N] [--reps=N]\n");
      return 2;
    }
  }
  if (gbench_mode) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return RunComparison(config);
}
