#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "bench/e2e/proc.h"
#include "obs/obs.h"
#include "serve/json_value.h"
#include "serve/service.h"

namespace fairlaw::bench {

namespace {

namespace fs = std::filesystem;

/// Bumped whenever the generator's output changes, so stale cached
/// inputs are never reused.
constexpr const char* kInputVersion = "v1";

/// Audit invocations alternate the two thread counts in pairs; at least
/// this many pairs run however short --seconds is.
constexpr size_t kMinPairs = 3;
constexpr size_t kMaxPairs = 50;

/// Relative tolerance for rates printed with ten significant digits.
constexpr double kRateTolerance = 1e-8;

uint64_t ElapsedNs(uint64_t start) { return obs::MonotonicNowNs() - start; }

/// Keeps one cached seed per (workload, scale): inputs of other seeds
/// are deleted before new ones are written.
void DropOtherSeeds(const std::string& root, const std::string& prefix,
                    const std::string& keep) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && entry.path().string() != keep) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

Status CheckRate(std::string_view group, int64_t count, double rate,
                 const Tallies& tallies) {
  const GroupTally* tally = tallies.Find(group);
  if (tally == nullptr) {
    return Status::Invalid("group '" + std::string(group) +
                           "' is not in the reference tallies");
  }
  const double expected = static_cast<double>(tally->positives) /
                          static_cast<double>(tally->count);
  if (count != tally->count ||
      std::fabs(rate - expected) > kRateTolerance * std::max(1.0, expected)) {
    return Status::Invalid("group '" + std::string(group) + "': reported n=" +
                           std::to_string(count) + " rate=" +
                           std::to_string(rate) + ", reference n=" +
                           std::to_string(tally->count) + " rate=" +
                           std::to_string(expected));
  }
  return Status::OK();
}

/// Checks one `groups` array of a metric report against the tallies.
Status CheckGroupsArray(const serve::JsonValue& groups,
                        const Tallies& tallies) {
  if (groups.size() != tallies.groups.size()) {
    return Status::Invalid("report lists " + std::to_string(groups.size()) +
                           " groups, reference has " +
                           std::to_string(tallies.groups.size()));
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    const serve::JsonValue& entry = groups.at(g);
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* name, entry.Get("group"));
    FAIRLAW_ASSIGN_OR_RETURN(std::string group, name->AsString());
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* count, entry.Get("count"));
    FAIRLAW_ASSIGN_OR_RETURN(int64_t n, count->AsInt64());
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* rate,
                             entry.Get("selection_rate"));
    FAIRLAW_ASSIGN_OR_RETURN(double selection_rate, rate->AsDouble());
    FAIRLAW_RETURN_NOT_OK(CheckRate(group, n, selection_rate, tallies));
  }
  return Status::OK();
}

Status CheckFourFifths(const std::string& response, const Tallies& tallies) {
  FAIRLAW_ASSIGN_OR_RETURN(serve::JsonValue doc,
                           serve::JsonValue::Parse(response));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* window, doc.Get("window"));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* events,
                           window->Get("events"));
  FAIRLAW_ASSIGN_OR_RETURN(int64_t in_window, events->AsInt64());
  if (in_window != tallies.rows) {
    return Status::Invalid("window holds " + std::to_string(in_window) +
                           " events, reference " +
                           std::to_string(tallies.rows));
  }
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* report,
                           doc.Get("four_fifths"));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* groups,
                           report->Get("groups"));
  return CheckGroupsArray(*groups, tallies);
}

/// An ingest ack must reject exactly the events the generator marked too
/// late and accept the rest.
Status CheckAck(const std::string& response, const Line& line) {
  FAIRLAW_ASSIGN_OR_RETURN(serve::JsonValue doc,
                           serve::JsonValue::Parse(response));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* accepted,
                           doc.Get("accepted"));
  FAIRLAW_ASSIGN_OR_RETURN(int64_t n_accepted, accepted->AsInt64());
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* rejected,
                           doc.Get("rejected"));
  FAIRLAW_ASSIGN_OR_RETURN(int64_t n_rejected, rejected->AsInt64());
  if (n_rejected != line.expected_rejects ||
      n_accepted != line.events - line.expected_rejects) {
    return Status::Invalid("ack accepted " + std::to_string(n_accepted) +
                           " rejected " + std::to_string(n_rejected) +
                           ", expected " +
                           std::to_string(line.events - line.expected_rejects) +
                           "/" + std::to_string(line.expected_rejects));
  }
  return Status::OK();
}

/// Median spawn-to-first-reply time of `kSetupSpawns` daemons asked for
/// their stats.
void ServeSetupSeconds(const BenchOptions& options, Workload workload,
                       uint64_t seed, WorkloadReport* report) {
  SessionBuilder builder(SpecFor(options, workload), seed);
  builder.AddSingle("stats", Line::Kind::kStats, kStatsLine);
  const ServeSession probe = builder.Finish();
  std::vector<double> setup;
  for (int i = 0; i < kSetupSpawns; ++i) {
    Result<SessionResult> result = RunSession(
        ServeArgv(options, workload, kThreads), probe, kChildTimeoutNs);
    if (!result.ok()) {
      report->Fail("set-up probe", result.status());
      continue;
    }
    const bool ok = result->exit.exit_code == 0 &&
                    result->responses[0].find("\"op\":\"stats\"") !=
                        std::string::npos;
    report->Count(ok, "set-up probe: no stats reply");
    if (ok) setup.push_back(Seconds(result->arrive_ns[0] - result->spawn_ns));
  }
  report->Add("setup_s", Median(setup), "s",
              static_cast<int64_t>(setup.size()));
}

void RunAuditWorkload(const BenchOptions& options, Workload workload,
                      uint64_t seed, WorkloadReport* report) {
  Result<AuditInputs> inputs = PrepareAuditInputs(options, workload, seed);
  if (!inputs.ok()) {
    report->Fail("inputs", inputs.status());
    return;
  }
  if (options.self_test) inputs->tallies.groups[0].count += 1;
  // Read once so the timed runs parse from the page cache, not the disk.
  Result<std::string> warm = ReadFile(inputs->csv);
  report->Count(warm.ok(), "cannot read the input CSV");

  std::vector<double> setup;
  for (int i = 0; i < kSetupSpawns; ++i) {
    Result<Invocation> run = RunToCompletion(
        AuditArgv(options, workload, inputs->head_csv, kThreads),
        kChildTimeoutNs);
    const bool ok = run.ok() && (run->exit.exit_code == 0 ||
                                 run->exit.exit_code == 2);
    report->Count(ok, "set-up probe failed");
    if (ok) setup.push_back(Seconds(run->wall_ns));
  }

  std::vector<double> wall_parallel;
  std::vector<double> wall_serial;
  std::vector<double> rss_mb;
  std::string reference;
  bool identical = true;
  const uint64_t start = obs::MonotonicNowNs();
  const uint64_t budget = SecondsToNs(options.seconds);
  for (size_t pair = 0;
       pair < kMinPairs || (ElapsedNs(start) < budget && pair < kMaxPairs);
       ++pair) {
    for (size_t k = 0; k < 2; ++k) {
      // Alternate which thread count runs first, so drift over the run
      // lands on both sides.
      const int threads = (pair + k) % 2 == 0 ? kThreads : kSerialThreads;
      Result<Invocation> run = RunToCompletion(
          AuditArgv(options, workload, inputs->csv, threads), kChildTimeoutNs);
      if (!run.ok()) {
        report->Fail("audit --threads=" + std::to_string(threads),
                     run.status());
        continue;
      }
      const bool ok = run->exit.exit_code == 0 || run->exit.exit_code == 2;
      report->Count(ok, "audit --threads=" + std::to_string(threads) +
                            " exited with " +
                            std::to_string(run->exit.exit_code));
      if (!ok) continue;
      if (threads == kThreads) {
        wall_parallel.push_back(Seconds(run->wall_ns));
        rss_mb.push_back(static_cast<double>(run->exit.peak_rss_kb) / 1024.0);
      } else {
        wall_serial.push_back(Seconds(run->wall_ns));
      }
      if (reference.empty()) {
        reference = std::move(run->out);
      } else if (run->out != reference) {
        identical = false;
      }
    }
  }
  report->Count(identical,
                "reports differ between --threads=1 and --threads=4");
  const Status rates = reference.empty()
                           ? Status::Invalid("no report was produced")
                           : CheckGroupRates(reference, inputs->tallies);
  report->Count(rates.ok(), "group rates: " + rates.ToString());

  const auto rows = static_cast<double>(inputs->tallies.rows);
  const auto n = static_cast<int64_t>(wall_parallel.size());
  report->Add("setup_s", Median(setup), "s",
              static_cast<int64_t>(setup.size()));
  report->Add("items_per_s", SafeDiv(rows, Median(wall_parallel)), "items/s",
              n);
  report->Add("serial_items_per_s", SafeDiv(rows, Median(wall_serial)),
              "items/s", static_cast<int64_t>(wall_serial.size()));
  report->Add("latency_p50_ms", 1e3 * Median(wall_parallel), "ms", n);
  report->Add("peak_rss_mb", Median(rss_mb), "MB", n);
}

void RunServeIngest(const BenchOptions& options, uint64_t seed,
                    WorkloadReport* report) {
  const Workload workload = Workload::kServeIngest;
  const Scale& scale = options.scale;
  ServeSetupSeconds(options, workload, seed, report);

  std::vector<NamedSession> sessions =
      BuildServeSessions(options, workload, seed);
  ServeSession& saturation = sessions[0].session;
  ServeSession& open_loop = sessions[1].session;
  if (options.self_test) {
    saturation.final_window.groups[0].count += 1;
    open_loop.final_window.groups[0].count += 1;
  }

  std::vector<double> rate_parallel;
  std::vector<double> rate_serial;
  std::vector<double> rss_mb;
  std::vector<SessionResult> saturation_runs;
  const uint64_t start = obs::MonotonicNowNs();
  const uint64_t budget = SecondsToNs(0.55 * options.seconds);
  for (size_t pair = 0;
       pair < kMinPairs || (ElapsedNs(start) < budget && pair < kMaxPairs);
       ++pair) {
    for (size_t k = 0; k < 2; ++k) {
      const int threads = (pair + k) % 2 == 0 ? kThreads : kSerialThreads;
      Result<SessionResult> run = RunSession(
          ServeArgv(options, workload, threads), saturation, kChildTimeoutNs);
      if (!run.ok()) {
        report->Fail("saturation --threads=" + std::to_string(threads),
                     run.status());
        continue;
      }
      const double rate =
          SafeDiv(static_cast<double>(scale.saturation_events),
                  PhaseSeconds(*run, saturation, 0));
      if (threads == kThreads) {
        rate_parallel.push_back(rate);
        rss_mb.push_back(static_cast<double>(run->exit.peak_rss_kb) / 1024.0);
      } else {
        rate_serial.push_back(rate);
      }
      saturation_runs.push_back(std::move(*run));
    }
  }

  std::vector<double> latencies;
  Result<SessionResult> open_run = RunSession(
      ServeArgv(options, workload, kThreads), open_loop, kChildTimeoutNs);
  if (open_run.ok()) {
    latencies = PacedLatenciesMs(*open_run, open_loop, 0, Line::Kind::kIngest);
  } else {
    report->Fail("open loop", open_run.status());
  }

  const serve::ServeConfig config = ServeConfigFor(options, workload, kThreads);
  const std::vector<std::string> saturation_replay =
      ReplayInProcess(config, saturation).responses;
  for (const SessionResult& run : saturation_runs) {
    CheckSession(saturation, run, saturation_replay, "saturation", report);
  }
  if (open_run.ok()) {
    CheckSession(open_loop, *open_run,
                 ReplayInProcess(config, open_loop).responses, "open loop",
                 report);
  }

  const auto n_latency = static_cast<int64_t>(latencies.size());
  report->Add("items_per_s", Median(rate_parallel), "items/s",
              static_cast<int64_t>(rate_parallel.size()));
  report->Add("serial_items_per_s", Median(rate_serial), "items/s",
              static_cast<int64_t>(rate_serial.size()));
  report->Add("latency_p50_ms", Median(latencies), "ms", n_latency);
  report->Add("peak_rss_mb", Median(rss_mb), "MB",
              static_cast<int64_t>(rss_mb.size()));
}

/// Queries/s of every closed-loop "burst" phase, and the latency of
/// every query in the open-loop phase.
void CollectQuerySamples(const ServeSession& session,
                         const SessionResult& result,
                         std::vector<double>* burst_rates,
                         std::vector<double>* latencies) {
  for (size_t p = 0; p < session.phases.size(); ++p) {
    const Phase& phase = session.phases[p];
    if (phase.paced) {
      const std::vector<double> paced =
          PacedLatenciesMs(result, session, p, Line::Kind::kQuery);
      latencies->insert(latencies->end(), paced.begin(), paced.end());
    } else if (phase.name == "burst") {
      burst_rates->push_back(SafeDiv(static_cast<double>(phase.queries),
                                     PhaseSeconds(result, session, p)));
    }
  }
}

void RunServeQuery(const BenchOptions& options, uint64_t seed,
                   WorkloadReport* report) {
  const Workload workload = Workload::kServeQuery;
  ServeSetupSeconds(options, workload, seed, report);

  std::vector<NamedSession> sessions =
      BuildServeSessions(options, workload, seed);
  ServeSession& parallel = sessions[0].session;
  ServeSession& serial = sessions[1].session;
  if (options.self_test) {
    parallel.final_window.groups[0].count += 1;
    serial.final_window.groups[0].count += 1;
  }

  std::vector<double> rate_parallel;
  std::vector<double> rate_serial;
  std::vector<double> latencies;
  std::vector<double> rss_mb;
  Result<SessionResult> parallel_run = RunSession(
      ServeArgv(options, workload, kThreads), parallel, kChildTimeoutNs);
  if (parallel_run.ok()) {
    CollectQuerySamples(parallel, *parallel_run, &rate_parallel, &latencies);
    rss_mb.push_back(static_cast<double>(parallel_run->exit.peak_rss_kb) /
                     1024.0);
  } else {
    report->Fail("serve_query --threads=4", parallel_run.status());
  }
  Result<SessionResult> serial_run = RunSession(
      ServeArgv(options, workload, kSerialThreads), serial, kChildTimeoutNs);
  if (serial_run.ok()) {
    CollectQuerySamples(serial, *serial_run, &rate_serial, &latencies);
  } else {
    report->Fail("serve_query --threads=1", serial_run.status());
  }

  const serve::ServeConfig config = ServeConfigFor(options, workload, kThreads);
  if (parallel_run.ok()) {
    CheckSession(parallel, *parallel_run,
                 ReplayInProcess(config, parallel).responses,
                 "threads=4 session", report);
  }
  if (serial_run.ok()) {
    CheckSession(serial, *serial_run,
                 ReplayInProcess(config, serial).responses,
                 "threads=1 session", report);
  }

  const auto n_latency = static_cast<int64_t>(latencies.size());
  report->Add("items_per_s", Median(rate_parallel), "items/s",
              static_cast<int64_t>(rate_parallel.size()));
  report->Add("serial_items_per_s", Median(rate_serial), "items/s",
              static_cast<int64_t>(rate_serial.size()));
  report->Add("latency_p50_ms", Median(latencies), "ms", n_latency);
  report->Add("peak_rss_mb", Median(rss_mb), "MB",
              static_cast<int64_t>(rss_mb.size()));
}

}  // namespace

Result<AuditInputs> PrepareAuditInputs(const BenchOptions& options,
                                       Workload workload, uint64_t seed) {
  const std::string prefix = std::string(WorkloadName(workload)) + "-" +
                             options.scale.name + "-" + kInputVersion + "-";
  const std::string root = options.work_dir + "/inputs";
  const std::string dir = root + "/" + prefix + std::to_string(seed);
  AuditInputs inputs;
  inputs.csv = dir + "/data.csv";
  inputs.head_csv = dir + "/head.csv";
  const std::string tallies_path = dir + "/tallies.json";
  std::error_code ec;
  if (fs::exists(tallies_path, ec) && fs::exists(inputs.csv, ec) &&
      fs::exists(inputs.head_csv, ec)) {
    Result<Tallies> cached = LoadTallies(tallies_path);
    if (cached.ok()) {
      inputs.tallies = std::move(*cached);
      return inputs;
    }
  }
  DropOtherSeeds(root, prefix, dir);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create '" + dir + "'");
  const size_t rows = workload == Workload::kAuditStream
                          ? options.scale.stream_rows
                          : options.scale.suite_rows;
  FAIRLAW_RETURN_NOT_OK(WriteAuditCsv(workload, seed, rows, inputs.csv,
                                      inputs.head_csv, &inputs.tallies));
  // The tallies land last: their presence marks a complete cache entry.
  FAIRLAW_RETURN_NOT_OK(SaveTallies(inputs.tallies, tallies_path));
  return inputs;
}

std::vector<std::string> AuditArgv(const BenchOptions& options,
                                   Workload workload, const std::string& csv,
                                   int threads) {
  std::vector<std::string> argv = {options.audit_bin, csv,
                                   "--protected=group", "--pred=pred",
                                   "--label=label", "--strata=region,tier"};
  if (workload == Workload::kAuditStream) {
    argv.push_back("--streaming");
  } else {
    argv.insert(argv.end(), {"--score=score", "--score-dist",
                             "--proxies=proxy1,proxy2",
                             "--subgroups=c1,c2,c3,c4,c5"});
  }
  argv.push_back("--json");
  argv.push_back("--threads=" + std::to_string(threads));
  return argv;
}

SuiteConfig AuditSuiteConfig(Workload workload, int threads) {
  SuiteConfig config;
  audit::AuditConfig& audit = config.audit;
  audit.protected_column = "group";
  audit.prediction_column = "pred";
  audit.label_column = "label";
  audit.strata_columns = {"region", "tier"};
  audit.num_threads = static_cast<size_t>(threads);
  config.subgroup_options.num_threads = static_cast<size_t>(threads);
  if (workload == Workload::kAuditSuite) {
    audit.score_column = "score";
    audit.audit_score_distribution = true;
    config.proxy_candidates = {"proxy1", "proxy2"};
    config.subgroup_columns = {"c1", "c2", "c3", "c4", "c5"};
  }
  return config;
}

Status CheckGroupRates(const std::string& report_json,
                       const Tallies& tallies) {
  FAIRLAW_ASSIGN_OR_RETURN(serve::JsonValue doc,
                           serve::JsonValue::Parse(report_json));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* findings,
                           doc.Get("findings"));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* metrics,
                           findings->Get("metrics"));
  if (metrics->size() == 0) return Status::Invalid("report has no metrics");
  for (size_t m = 0; m < metrics->size(); ++m) {
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* groups,
                             metrics->at(m).Get("groups"));
    FAIRLAW_RETURN_NOT_OK(CheckGroupsArray(*groups, tallies));
  }
  return Status::OK();
}

ServeSpec SpecFor(const BenchOptions& options, Workload workload) {
  if (workload == Workload::kServeQuery) {
    ServeSpec spec = QuerySpec();
    spec.window_buckets = options.scale.query_buckets;
    return spec;
  }
  return IngestSpec();
}

std::vector<std::string> ServeArgv(const BenchOptions& options,
                                   Workload workload, int threads) {
  const ServeSpec spec = SpecFor(options, workload);
  return {options.serve_bin, "--with-strata",
          "--bucket-width=" + std::to_string(spec.bucket_width),
          "--window-buckets=" + std::to_string(spec.window_buckets),
          "--threads=" + std::to_string(threads)};
}

serve::ServeConfig ServeConfigFor(const BenchOptions& options,
                                  Workload workload, int threads) {
  const ServeSpec spec = SpecFor(options, workload);
  serve::ServeConfig config;
  config.bucket_width = spec.bucket_width;
  config.num_buckets = spec.window_buckets;
  config.with_strata = true;
  config.num_threads = static_cast<size_t>(threads);
  return config;
}

Replay ReplayInProcess(const serve::ServeConfig& config,
                       const ServeSession& session) {
  obs::ResetAll();
  serve::Service service(config);
  Replay replay;
  replay.responses.reserve(session.total_lines);
  for (const Phase& phase : session.phases) {
    const uint64_t start = obs::MonotonicNowNs();
    for (const Line& line : phase.lines) {
      replay.responses.push_back(service.HandleLine(line.text));
    }
    replay.phase_seconds.push_back(Seconds(ElapsedNs(start)));
  }
  return replay;
}

void CheckSession(const ServeSession& session, const SessionResult& result,
                  const std::vector<std::string>& replay,
                  const std::string& label, WorkloadReport* report) {
  report->Count(result.exit.exit_code == 0,
                label + ": daemon exited with " +
                    std::to_string(result.exit.exit_code));
  size_t index = 0;
  size_t final_query = result.responses.size();
  size_t first_mismatch = result.responses.size();
  for (const Phase& phase : session.phases) {
    for (const Line& line : phase.lines) {
      const std::string& response = result.responses[index];
      if (line.kind == Line::Kind::kStats) {
        report->Count(response.find("\"op\":\"stats\"") != std::string::npos,
                      label + ": no stats reply");
        ++index;
        continue;
      }
      Status status;
      if (response.find(",\"error\":{") != std::string::npos) {
        status = Status::Invalid("error frame: " + response.substr(0, 200));
      } else if (line.kind == Line::Kind::kIngest) {
        status = CheckAck(response, line);
      }
      report->Count(status.ok(), label + " line " + std::to_string(index) +
                                     ": " + status.ToString());
      if (line.kind == Line::Kind::kQuery && line.text == kFourFifthsLine) {
        final_query = index;
      }
      if (first_mismatch == result.responses.size() &&
          (index >= replay.size() || replay[index] != response)) {
        first_mismatch = index;
      }
      ++index;
    }
  }
  report->Count(first_mismatch == result.responses.size(),
                label + ": response " + std::to_string(first_mismatch) +
                    " differs from the in-process replay");
  const Status final_status =
      final_query == result.responses.size()
          ? Status::Invalid("no closing four_fifths query")
          : CheckFourFifths(result.responses[final_query],
                            session.final_window);
  report->Count(final_status.ok(),
                label + ": final four_fifths: " + final_status.ToString());
}

double PhaseSeconds(const SessionResult& result, const ServeSession& session,
                    size_t phase) {
  const size_t first = result.phase_first[phase];
  const size_t last = first + session.phases[phase].lines.size() - 1;
  return Seconds(result.arrive_ns[last] - result.send_ns[first]);
}

std::vector<double> PacedLatenciesMs(const SessionResult& result,
                                     const ServeSession& session, size_t phase,
                                     Line::Kind kind) {
  std::vector<double> latencies;
  const size_t first = result.phase_first[phase];
  const std::vector<Line>& lines = session.phases[phase].lines;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].kind != kind) continue;
    const size_t index = first + i;
    latencies.push_back(
        static_cast<double>(result.arrive_ns[index] - result.due_ns[index]) /
        1e6);
  }
  return latencies;
}

std::vector<NamedSession> BuildServeSessions(const BenchOptions& options,
                                             Workload workload, uint64_t seed) {
  const ServeSpec spec = SpecFor(options, workload);
  const Scale& scale = options.scale;
  std::vector<NamedSession> sessions;
  if (workload == Workload::kServeIngest) {
    SessionBuilder saturation(spec, seed);
    saturation.AddIngest("saturation", scale.saturation_events, 256);
    saturation.AddSingle("final", Line::Kind::kQuery, kFourFifthsLine);
    sessions.push_back({"saturation", saturation.Finish()});
    SessionBuilder open_loop(spec, seed);
    open_loop.AddOpenLoop("open_loop", scale.ingest_rate, 64, 1.0,
                          std::max(1.0, 0.4 * options.seconds));
    open_loop.AddSingle("final", Line::Kind::kQuery, kFourFifthsLine);
    sessions.push_back({"open_loop", open_loop.Finish()});
    return sessions;
  }
  // serve_query: the prefill fills the window and is not timed; bursts
  // measure query throughput on the full window, the open-loop phase
  // query latency under a steady ingest stream.
  const size_t prefill =
      spec.window_buckets * static_cast<size_t>(spec.bucket_width);
  SessionBuilder parallel(spec, seed);
  parallel.AddIngest("prefill", prefill, 256);
  for (int i = 0; i < 3; ++i) parallel.AddQueries("burst", scale.query_burst);
  parallel.AddOpenLoop("open_loop", scale.query_event_rate, 64,
                       scale.query_rate, std::max(1.0, 0.4 * options.seconds));
  for (int i = 0; i < 3; ++i) parallel.AddQueries("burst", scale.query_burst);
  parallel.AddSingle("final", Line::Kind::kQuery, kFourFifthsLine);
  sessions.push_back({"threads4", parallel.Finish()});
  SessionBuilder serial(spec, seed);
  serial.AddIngest("prefill", prefill, 256);
  for (int i = 0; i < 6; ++i) serial.AddQueries("burst", scale.query_burst);
  serial.AddSingle("final", Line::Kind::kQuery, kFourFifthsLine);
  sessions.push_back({"threads1", serial.Finish()});
  return sessions;
}

WorkloadReport RunWorkload(const BenchOptions& options, Workload workload,
                           uint64_t seed) {
  WorkloadReport report;
  report.workload = WorkloadName(workload);
  report.seed = seed;
  switch (workload) {
    case Workload::kAuditStream:
    case Workload::kAuditSuite:
      RunAuditWorkload(options, workload, seed, &report);
      break;
    case Workload::kServeIngest:
      RunServeIngest(options, seed, &report);
      break;
    case Workload::kServeQuery:
      RunServeQuery(options, seed, &report);
      break;
  }
  return report;
}

}  // namespace fairlaw::bench
