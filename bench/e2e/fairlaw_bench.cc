// fairlaw_bench — end-to-end benchmark of fairlaw_audit and fairlaw_serve.
//
//   fairlaw_bench run     [--workload=W] [--seed=S] [--seconds=T]
//                         [--scale=full|smoke] [--out=DIR] [--self-test]
//   fairlaw_bench trace   [--workload=W] [--seed=S] [--seconds=T]
//                         [--scale=full|smoke] [--out=DIR] [--trace=PATH]
//   fairlaw_bench gen     [--workload=W] [--seed=S] [--scale=full|smoke]
//   fairlaw_bench compare A.json B.json
//
// `run` generates the seeded inputs, runs the real binaries as child
// processes (tracing off), checks every output, prints one
// `workload metric value unit` line per metric, appends the invocation
// to DIR/results.json, and ends with a one-line JSON result. `trace` is
// the separate in-process run that yields the per-layer metrics and a
// Chrome trace-event file. `gen` writes the inputs and reference tallies
// without timing anything. `compare` sets two results files side by
// side against the bounds in ./BENCHMARK.json. Workloads, metrics, and
// bounds: bench/e2e/README.md.
// Exit codes: 0 = every check passed, 1 = a check or operation failed,
// 2 = bad usage.
#include <fcntl.h>
#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/e2e/gen.h"
#include "bench/e2e/report.h"
#include "bench/e2e/trace.h"
#include "bench/e2e/workloads.h"
#include "tools/cli.h"

namespace {

namespace bench = fairlaw::bench;

struct CliOptions {
  std::string command;
  std::vector<std::string> positionals;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  std::string scale = "full";
  std::string out = ".bench_build/bench";
  std::string trace_path;
  bool self_test = false;
};

fairlaw::Result<CliOptions> Parse(int argc, char** argv, bool* show_help,
                                  std::string* help_text) {
  CliOptions options;
  fairlaw::cli::FlagSet flags(
      "fairlaw_bench", "<run|trace|gen|compare> [A.json B.json]",
      "End-to-end benchmark: runs fairlaw_audit and fairlaw_serve on seeded\n"
      "inputs, checks their outputs, and reports the metrics named in\n"
      "BENCHMARK.json (bench/e2e/README.md defines each one).");
  flags.Add("workload", &options.workload,
            "audit_stream, audit_suite, serve_ingest, or serve_query "
            "(default: all four)");
  flags.Add("seed", &options.seed, "input seed (same seed, same inputs)");
  flags.Add("seconds", &options.seconds, "measurement budget per workload",
            fairlaw::cli::Range<double>{0.0, 600.0});
  flags.Add("scale", &options.scale,
            "full (recorded numbers) or smoke (seconds, for the ctest)");
  flags.Add("self-test", &options.self_test,
            "corrupt one reference tally; every check run must then fail");
  flags.Section("files");
  flags.Add("out", &options.out,
            "results, traces, and the cache of generated inputs");
  flags.Add("trace", &options.trace_path,
            "trace: Chrome trace-event file (default: <out>/trace-<workload>"
            ".json)");
  *help_text = flags.Help();
  FAIRLAW_ASSIGN_OR_RETURN(fairlaw::cli::ParseResult parsed,
                           flags.Parse(argc, argv));
  if (parsed.help) {
    *show_help = true;
    return options;
  }
  if (parsed.positionals.empty()) {
    return fairlaw::Status::Invalid("no command given");
  }
  options.command = parsed.positionals[0];
  options.positionals.assign(parsed.positionals.begin() + 1,
                             parsed.positionals.end());
  const bool compare = options.command == "compare";
  if (options.command != "run" && options.command != "trace" &&
      options.command != "gen" && !compare) {
    return fairlaw::Status::Invalid("unknown command '" + options.command +
                                    "'");
  }
  if (options.positionals.size() != (compare ? 2u : 0u)) {
    return fairlaw::Status::Invalid(
        compare ? "compare takes two results files"
                : "unexpected argument '" + options.positionals[0] + "'");
  }
  if (options.scale != "full" && options.scale != "smoke") {
    return fairlaw::Status::Invalid("--scale must be full or smoke");
  }
  return options;
}

/// The file a workload's trace goes to: --trace as given for a single
/// workload, suffixed with the workload name when several run.
std::string TracePath(const CliOptions& options, bench::Workload workload,
                      size_t num_workloads) {
  const std::string name = bench::WorkloadName(workload);
  if (options.trace_path.empty()) {
    return options.out + "/trace-" + name + ".json";
  }
  if (num_workloads == 1) return options.trace_path;
  std::filesystem::path path(options.trace_path);
  return (path.parent_path() /
          (path.stem().string() + "-" + name + path.extension().string()))
      .string();
}

/// `gen`: writes every input of the selected workloads, plus the serve
/// request schedules (one "<phase>\t<due_ns>\t<request>" line per
/// request) and their reference tallies, under the input cache.
int Generate(const bench::BenchOptions& options,
             const std::vector<bench::Workload>& workloads, uint64_t seed) {
  for (bench::Workload workload : workloads) {
    const std::string name = bench::WorkloadName(workload);
    if (workload == bench::Workload::kAuditStream ||
        workload == bench::Workload::kAuditSuite) {
      fairlaw::Result<bench::AuditInputs> inputs =
          bench::PrepareAuditInputs(options, workload, seed);
      if (!inputs.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     inputs.status().ToString().c_str());
        return 1;
      }
      std::printf("%s %s (%lld rows)\n", name.c_str(), inputs->csv.c_str(),
                  static_cast<long long>(inputs->tallies.rows));
      continue;
    }
    const std::string dir = options.work_dir + "/inputs/" + name + "-" +
                            options.scale.name + "-schedules-" +
                            std::to_string(seed);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    for (const bench::NamedSession& named :
         bench::BuildServeSessions(options, workload, seed)) {
      const std::string path = dir + "/" + named.name + ".tsv";
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      for (const bench::Phase& phase : named.session.phases) {
        for (const bench::Line& line : phase.lines) {
          out << phase.name << '\t' << line.due_ns << '\t' << line.text
              << '\n';
        }
      }
      const fairlaw::Status saved = bench::SaveTallies(
          named.session.final_window, dir + "/" + named.name + ".tallies.json");
      if (!out || !saved.ok()) {
        std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
        return 1;
      }
      std::printf("%s %s (%zu requests)\n", name.c_str(), path.c_str(),
                  named.session.total_lines);
    }
  }
  return 0;
}

/// Child processes and pipes need fds 0-2 to be taken, or a new pipe
/// could land on one of them.
void EnsureStandardFds() {
  for (int fd = 0; fd <= 2; ++fd) {
    if (fcntl(fd, F_GETFD) == -1) {
      open("/dev/null", fd == 0 ? O_RDONLY : O_WRONLY);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  EnsureStandardFds();
  // A daemon that dies mid-session must surface as a write error, not
  // kill the benchmark.
  signal(SIGPIPE, SIG_IGN);
  bool show_help = false;
  std::string help_text;
  fairlaw::Result<CliOptions> parsed =
      Parse(argc, argv, &show_help, &help_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s",
                 parsed.status().message().c_str(), help_text.c_str());
    return 2;
  }
  if (show_help) {
    std::printf("%s", help_text.c_str());
    return 0;
  }
  const CliOptions& cli = *parsed;
  if (cli.command == "compare") {
    fairlaw::Result<bool> within = bench::Compare(
        cli.positionals[0], cli.positionals[1], "BENCHMARK.json");
    if (!within.ok()) {
      std::fprintf(stderr, "error: %s\n", within.status().ToString().c_str());
      return 2;
    }
    return *within ? 0 : 1;
  }

  std::vector<bench::Workload> workloads;
  if (cli.workload.empty()) {
    workloads.assign(std::begin(bench::kAllWorkloads),
                     std::end(bench::kAllWorkloads));
  } else {
    fairlaw::Result<bench::Workload> workload =
        bench::ParseWorkload(cli.workload);
    if (!workload.ok()) {
      std::fprintf(stderr, "error: %s\n", workload.status().message().c_str());
      return 2;
    }
    workloads.push_back(*workload);
  }
  bench::BenchOptions options;
  options.audit_bin = FAIRLAW_BENCH_AUDIT_BIN;
  options.serve_bin = FAIRLAW_BENCH_SERVE_BIN;
  options.work_dir = cli.out;
  options.scale =
      cli.scale == "smoke" ? bench::SmokeScale() : bench::FullScale();
  options.seconds = cli.seconds;
  options.self_test = cli.self_test;
  if (cli.command == "gen") return Generate(options, workloads, cli.seed);

  const bool trace = cli.command == "trace";
  std::error_code ec;
  std::filesystem::create_directories(cli.out, ec);
  std::vector<bench::WorkloadReport> reports;
  for (bench::Workload workload : workloads) {
    bench::WorkloadReport report =
        trace ? bench::TraceWorkload(options, workload, cli.seed,
                                     TracePath(cli, workload, workloads.size()))
              : bench::RunWorkload(options, workload, cli.seed);
    bench::PrintHuman(report);
    std::fflush(stdout);
    reports.push_back(std::move(report));
  }
  const std::string results_dir =
      trace ? cli.out + "/trace" : cli.out;
  const fairlaw::Status saved = bench::AppendResults(results_dir, reports);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", bench::ResultLine(reports).c_str());
  for (const bench::WorkloadReport& report : reports) {
    if (report.failed > 0) return 1;
  }
  return 0;
}
