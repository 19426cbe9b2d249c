// fairlaw_audit — command-line fairness auditor.
//
//   fairlaw_audit decisions.csv --protected=gender --pred=decision
//       [--label=outcome] [--score=probability]
//       [--strata=dept,level] [--proxies=zip,education]
//       [--subgroups=gender,race] [--tolerance=0.05] [--json]
//       [--threads=4] [--streaming [--chunk-rows=16384]
//                                  [--max-memory-mb=512]]
//       [--obs-json=PATH] [--obs-timings]
//
// Reads a CSV, runs the configured fairness suite, and prints either the
// human-readable report or (with --json) the machine-readable artifact.
// Without --streaming the CSV is read whole and audited as one table:
// --threads reads the file's chunks and compares the groups' score
// distributions on a pool, and every other step runs serially.
// --streaming audits the CSV out-of-core one chunk at a time (metric
// audit only — the table never materializes, so the
// proxy/subgroup/sampling extras are unavailable); --threads processes
// its chunks in parallel, --chunk-rows sizes them, and --max-memory-mb
// caps the derived chunk size so the chunks the workers hold at once fit
// the budget. The output is identical for every value of these three.
// --obs-json additionally dumps the obs probe registry (counters,
// histograms, trace spans) collected during the run; the dump is
// byte-identical for every --threads value unless --obs-timings adds the
// (non-reproducible) wall-clock totals.
// Exit codes: 0 = all clear, 2 = violations found, 1 = error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "audit/auditor.h"
#include "audit/report_io.h"
#include "audit/source.h"
#include "core/json.h"
#include "core/suite.h"
#include "data/csv.h"
#include "obs/obs.h"
#include "tools/cli.h"

namespace {

struct CliOptions {
  std::string csv_path;
  fairlaw::SuiteConfig suite;
  bool json = false;
  bool streaming = false;
  std::string obs_json_path;
  bool obs_timings = false;
};

/// Rows per chunk that keep the streaming engine's parsed chunks under
/// `max_memory_mb`. A chunk lives only while a worker reads and audits
/// it (a queued window slot has not read its chunk yet, a done one keeps
/// only its partial), and the serial path reads one at a time, so at
/// most one parsed chunk per worker is alive. Rows are costed at a
/// conservative flat estimate (mixed string/double columns) since the
/// schema is unknown before the first read. --threads=0 means "one per
/// hardware thread", whose count is unknown here, so the budget assumes
/// a generous 16 workers rather than querying thread primitives in a
/// flag parser.
size_t ChunkRowsForBudget(size_t max_memory_mb, size_t threads) {
  constexpr size_t kBytesPerRowEstimate = 256;
  const size_t workers = threads == 0 ? 16 : threads;
  const size_t budget_rows =
      max_memory_mb * 1024 * 1024 / (kBytesPerRowEstimate * workers);
  // Never go below a useful morsel: tiny chunks drown in scheduling
  // overhead without buying memory back.
  return std::max<size_t>(budget_rows, 1024);
}

fairlaw::cli::FlagSet MakeFlags(CliOptions* options) {
  fairlaw::cli::FlagSet flags(
      "fairlaw_audit", "<csv>",
      "Audits the decisions in <csv> for the fairness definitions of\n"
      "'Fairness in AI: bridging algorithms and law' (ICDE 2024 wksp).\n"
      "exit codes: 0 all clear, 2 violations found, 1 error");
  fairlaw::audit::AuditConfig& audit = options->suite.audit;
  flags.Section("column mapping");
  flags.Add("protected", &audit.protected_column,
            "protected attribute column (required)");
  flags.Add("pred", &audit.prediction_column,
            "binary decision column (required)");
  flags.Add("label", &audit.label_column,
            "outcome column; enables the label-dependent metrics");
  flags.Add("score", &audit.score_column,
            "probability score column; enables the calibration audit");
  flags.Add("strata", &audit.strata_columns,
            "legitimate-factor columns for the conditional metrics");
  flags.Add("proxies", &options->suite.proxy_candidates,
            "candidate proxy columns for the proxy audit");
  flags.Add("subgroups", &options->suite.subgroup_columns,
            "attribute columns for the subgroup audit");
  flags.Section("audit gates");
  flags.Add("score-dist", &audit.audit_score_distribution,
            "audit per-group score-distribution drift (W1/KS against "
            "everyone else; requires --score)");
  flags.Add("score-dist-tolerance", &audit.score_distribution_tolerance,
            "max per-group KS statistic for the drift audit to pass",
            fairlaw::cli::Range<double>{0.0, 1.0});
  flags.Add("tolerance", &audit.tolerance,
            "gap tolerance for the equality-style metrics",
            fairlaw::cli::Range<double>{0.0, 1.0});
  flags.Add("di-threshold", &audit.di_threshold,
            "disparate-impact ratio threshold (four-fifths rule)",
            fairlaw::cli::Range<double>{0.0, 1.0, /*min_inclusive=*/false});
  flags.Section("output");
  flags.Add("json", &options->json, "emit the machine-readable JSON report");
  flags.Add("obs-json", &options->obs_json_path,
            "write the obs probe dump (counters/histograms/spans) here");
  flags.Add("obs-timings", &options->obs_timings,
            "include per-span wall-clock totals in the obs dump "
            "(non-reproducible across runs)");
  flags.Section("execution");
  flags.Add("streaming", &options->streaming,
            "stream the CSV out-of-core one chunk at a time (metric audit "
            "only; incompatible with --proxies/--subgroups)");
  return flags;
}

fairlaw::Result<CliOptions> Parse(int argc, char** argv, bool* show_help,
                                  std::string* help_text) {
  CliOptions options;
  // --threads is registered on a local so the chunk budget below can
  // size the in-flight window by it.
  int64_t threads = 1;
  fairlaw::cli::FlagSet flags = MakeFlags(&options);
  flags.Add("threads", &threads,
            "worker threads for the CSV read and the score-distribution "
            "comparisons, and for the --streaming chunk morsels (0 = one "
            "per hardware thread); the output is identical for every value",
            fairlaw::cli::Range<int64_t>{0, 512});
  int64_t chunk_rows = 0;
  flags.Add("chunk-rows", &chunk_rows,
            "rows per --streaming chunk (0 = the 16k default); the output "
            "is identical for every value",
            fairlaw::cli::Range<int64_t>{0, int64_t{1} << 31});
  int64_t max_memory_mb = 0;
  flags.Add("max-memory-mb", &max_memory_mb,
            "approximate --streaming memory budget; caps the chunk size so "
            "the chunks the workers hold fit (0 = no cap)",
            fairlaw::cli::Range<int64_t>{0, int64_t{1} << 31});
  *help_text = flags.Help();
  FAIRLAW_ASSIGN_OR_RETURN(fairlaw::cli::ParseResult parsed,
                           flags.Parse(argc, argv));
  if (parsed.help) {
    *show_help = true;
    return options;
  }
  options.suite.audit.num_threads = static_cast<size_t>(threads);
  size_t chunk = static_cast<size_t>(chunk_rows);
  if (max_memory_mb > 0) {
    const size_t budget_rows = ChunkRowsForBudget(
        static_cast<size_t>(max_memory_mb), static_cast<size_t>(threads));
    chunk = chunk == 0 ? budget_rows : std::min(chunk, budget_rows);
  }
  options.suite.audit.chunk_rows = chunk;
  if (options.streaming && (!options.suite.proxy_candidates.empty() ||
                            !options.suite.subgroup_columns.empty())) {
    return fairlaw::Status::Invalid(
        "--streaming runs the metric audit only; drop --proxies and "
        "--subgroups or drop --streaming");
  }
  if (!options.streaming && (chunk_rows != 0 || max_memory_mb != 0)) {
    return fairlaw::Status::Invalid(
        "--chunk-rows and --max-memory-mb size the --streaming chunks; an "
        "in-memory audit is one chunk, so drop them or add --streaming");
  }
  if (parsed.positionals.empty()) {
    return fairlaw::Status::Invalid("no input CSV given");
  }
  if (parsed.positionals.size() > 1) {
    return fairlaw::Status::Invalid("more than one input file given");
  }
  options.csv_path = parsed.positionals[0];
  if (options.suite.audit.protected_column.empty() ||
      options.suite.audit.prediction_column.empty()) {
    return fairlaw::Status::Invalid("--protected and --pred are required");
  }
  return options;
}

/// Writes the obs registry dump; called after the suite so the probes
/// cover the full run (the ThreadPools are joined by then, so every
/// worker's spans have merged).
fairlaw::Status WriteObsJson(const std::string& path, bool include_timings) {
  fairlaw::obs::ExportOptions export_options;
  export_options.include_timings = include_timings;
  const std::string dump = fairlaw::obs::ExportJson(export_options);
  std::ofstream output(path, std::ios::binary);
  if (!output) {
    return fairlaw::Status::IOError("cannot open '" + path +
                                    "' for writing");
  }
  output << dump << '\n';
  if (!output) {
    return fairlaw::Status::IOError("error writing '" + path + "'");
  }
  return fairlaw::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  bool show_help = false;
  std::string help_text;
  fairlaw::Result<CliOptions> parsed =
      Parse(argc, argv, &show_help, &help_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s",
                 parsed.status().message().c_str(), help_text.c_str());
    return 1;
  }
  if (show_help) {
    std::printf("%s", help_text.c_str());
    return 0;
  }

  fairlaw::SuiteReport suite_report;
  if (parsed->streaming) {
    // Out-of-core path: the CSV streams through the chunk reader and the
    // table never materializes; only the metric audit section fills in.
    fairlaw::Result<fairlaw::audit::AuditResult> audit =
        fairlaw::audit::Auditor::Run(
            fairlaw::audit::AuditSource::FromCsv(parsed->csv_path),
            parsed->suite.audit);
    if (!audit.ok()) {
      std::fprintf(stderr, "audit error: %s\n",
                   audit.status().ToString().c_str());
      return 1;
    }
    suite_report.audit = std::move(*audit);
    suite_report.all_clear = suite_report.audit.all_satisfied;
  } else {
    fairlaw::Result<fairlaw::data::Table> table =
        fairlaw::data::ReadCsvFile(parsed->csv_path, {},
                                   parsed->suite.audit.num_threads);
    if (!table.ok()) {
      std::fprintf(stderr, "error reading '%s': %s\n",
                   parsed->csv_path.c_str(),
                   table.status().ToString().c_str());
      return 1;
    }

    fairlaw::Result<fairlaw::SuiteReport> report =
        fairlaw::RunFairnessSuite(*table, parsed->suite);
    if (!report.ok()) {
      std::fprintf(stderr, "audit error: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    suite_report = std::move(*report);
  }

  if (!parsed->obs_json_path.empty()) {
    fairlaw::Status obs_status =
        WriteObsJson(parsed->obs_json_path, parsed->obs_timings);
    if (!obs_status.ok()) {
      std::fprintf(stderr, "obs dump error: %s\n",
                   obs_status.ToString().c_str());
      return 1;
    }
  }

  if (parsed->json) {
    fairlaw::Result<std::string> json =
        [&]() -> fairlaw::Result<std::string> {
      if (parsed->streaming) {
        // The streaming run produced a bare AuditResult; serialize it
        // as the versioned audit envelope rather than a suite report
        // with empty extras. audit.rows_audited is the one obs counter
        // that is chunk- and thread-invariant, so it may ride in the
        // envelope.
        fairlaw::audit::ReportEnvelopeOptions envelope;
        envelope.obs_counters = {"audit.rows_audited"};
        return fairlaw::audit::AuditResultToJson(suite_report.audit,
                                                 envelope);
      }
      return fairlaw::SuiteReportToJson(suite_report);
    }();
    if (!json.ok()) {
      std::fprintf(stderr, "serialization error: %s\n",
                   json.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", json->c_str());
  } else {
    std::printf("%s", suite_report.Render().c_str());
  }
  return suite_report.all_clear ? 0 : 2;
}
