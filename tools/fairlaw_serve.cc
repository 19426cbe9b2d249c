// fairlaw_serve — windowed audit daemon over line-delimited JSON.
//
//   fairlaw_generate events --n=100000 --events-jsonl --batch=512 |
//       fairlaw_serve --bucket-width=1000 --window-buckets=60
//
// Reads one request per line on stdin, writes one response per line on
// stdout. Requests: {"op":"ingest","events":[...]} appends events to
// the sliding window (a ring of time buckets holding mergeable tallies
// and per-group KLL score sketches); {"op":"query","type":...} answers
// audits over the current window without rescanning history;
// {"op":"stats"} dumps the full obs registry. The determinism contract:
// query responses are byte-identical for a given event sequence
// regardless of ingest batch boundaries and --threads — CI replays the
// same stream at two batch sizes and byte-compares the '"op":"query"'
// lines. Protocol details: DESIGN.md §15.
// Exit codes: 0 = clean shutdown (stdin EOF), 1 = bad flags.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "serve/api.h"
#include "serve/service.h"
#include "tools/cli.h"

namespace {

fairlaw::Result<fairlaw::serve::ServeConfig> Parse(int argc, char** argv,
                                                   bool* show_help,
                                                   std::string* help_text) {
  fairlaw::serve::ServeConfig config;
  fairlaw::cli::FlagSet flags(
      "fairlaw_serve", "",
      "Windowed fairness-audit daemon: line-delimited JSON requests on\n"
      "stdin, one response per line on stdout. Maintains a sliding\n"
      "window of mergeable per-group state and answers audit queries\n"
      "without rescanning history. Query responses are byte-identical\n"
      "for every ingest batching and thread count.");

  flags.Section("window");
  int64_t window_buckets = static_cast<int64_t>(config.num_buckets);
  flags.Add("bucket-width", &config.bucket_width,
            "event-time units per window bucket",
            fairlaw::cli::Range<int64_t>{1, int64_t{1} << 62});
  flags.Add("window-buckets", &window_buckets,
            "ring size: the window covers this many buckets ending at "
            "the watermark",
            fairlaw::cli::Range<int64_t>{1, 1 << 20});

  flags.Section("event schema");
  flags.Add("with-labels", &config.with_labels,
            "events carry 'label' (enables the label metrics)");
  flags.Add("with-scores", &config.with_scores,
            "events carry 'score' (enables drift and quantile queries; "
            "requires --with-labels)");
  flags.Add("with-strata", &config.with_strata,
            "events carry 'stratum' (enables conditional metrics and "
            "drill-down queries)");

  flags.Section("audit thresholds");
  int64_t min_stratum_size = static_cast<int64_t>(config.min_stratum_size);
  flags.Add("tolerance", &config.tolerance,
            "gap tolerance for the equality-style metrics",
            fairlaw::cli::Range<double>{0.0, 1.0});
  flags.Add("di-threshold", &config.di_threshold,
            "disparate-impact ratio threshold (four-fifths rule)",
            fairlaw::cli::Range<double>{0.0, 1.0, /*min_inclusive=*/false});
  flags.Add("drift-tolerance", &config.drift_tolerance,
            "max per-group KS statistic for the sketch drift audit",
            fairlaw::cli::Range<double>{0.0, 1.0});
  flags.Add("min-stratum-size", &min_stratum_size,
            "minimum events per stratum for the conditional metrics",
            fairlaw::cli::Range<int64_t>{1, int64_t{1} << 31});

  flags.Section("execution");
  int64_t threads = static_cast<int64_t>(config.num_threads);
  int64_t sketch_k = static_cast<int64_t>(config.sketch_k);
  flags.Add("threads", &threads,
            "worker threads for the window sketch folds (0 = one per "
            "hardware thread); responses are identical for every value",
            fairlaw::cli::Range<int64_t>{0, 512});
  flags.Add("sketch-k", &sketch_k,
            "KLL accuracy parameter for the per-group score sketches",
            fairlaw::cli::Range<int64_t>{8, 1 << 20});

  *help_text = flags.Help();
  FAIRLAW_ASSIGN_OR_RETURN(fairlaw::cli::ParseResult parsed,
                           flags.Parse(argc, argv));
  if (parsed.help) {
    *show_help = true;
    return config;
  }
  if (!parsed.positionals.empty()) {
    return fairlaw::Status::Invalid(
        "fairlaw_serve takes no positional arguments (requests arrive on "
        "stdin)");
  }
  config.num_buckets = static_cast<size_t>(window_buckets);
  config.min_stratum_size = static_cast<size_t>(min_stratum_size);
  config.num_threads = static_cast<size_t>(threads);
  config.sketch_k = static_cast<uint32_t>(sketch_k);
  FAIRLAW_RETURN_NOT_OK(config.Validate());
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bool show_help = false;
  std::string help_text;
  fairlaw::Result<fairlaw::serve::ServeConfig> config =
      Parse(argc, argv, &show_help, &help_text);
  if (!config.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s",
                 config.status().message().c_str(), help_text.c_str());
    return 1;
  }
  if (show_help) {
    std::printf("%s", help_text.c_str());
    return 0;
  }

  // Unsynced, std::cin reads through its own buffer; synced, it reads
  // one char at a time through getc, which locks stdin on every call
  // once the service's worker threads exist.
  std::ios::sync_with_stdio(false);
  fairlaw::serve::Service service(*config);
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string response = service.HandleLine(line);
    std::fputs(response.c_str(), stdout);
    std::fputc('\n', stdout);
    // One response per request, visible as soon as it exists — callers
    // drive the daemon interactively over a pipe.
    std::fflush(stdout);
  }
  return 0;
}
