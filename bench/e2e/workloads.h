#ifndef FAIRLAW_BENCH_E2E_WORKLOADS_H_
#define FAIRLAW_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "bench/e2e/gen.h"
#include "bench/e2e/report.h"
#include "bench/e2e/session.h"
#include "core/suite.h"
#include "serve/api.h"

/// The four workloads: their inputs, the commands and daemon sessions
/// that exercise the real binaries, and the output checks.
namespace fairlaw::bench {

struct BenchOptions {
  std::string audit_bin;
  std::string serve_bin;
  /// Cached inputs live under <work_dir>/inputs, one directory per
  /// (workload, scale, seed); other seeds of the same workload are
  /// dropped.
  std::string work_dir;
  Scale scale;
  double seconds = 15.0;
  /// Corrupt one reference tally so the checks must fail.
  bool self_test = false;
};

/// The thread counts every workload compares: the multi-threaded
/// configuration users run and the single-threaded baseline.
inline constexpr int kThreads = 4;
inline constexpr int kSerialThreads = 1;

/// Set-up probes per invocation (the median is reported).
inline constexpr int kSetupSpawns = 15;

/// No child may take longer than this, so a hung daemon cannot stall an
/// invocation for more than a few minutes.
inline constexpr uint64_t kChildTimeoutNs = 30ull * 1000000000ull;

struct AuditInputs {
  std::string csv;
  std::string head_csv;  // header + first 100 rows
  Tallies tallies;
};

/// Generates (or reuses) the CSV of an audit workload and its tallies.
FAIRLAW_NODISCARD Result<AuditInputs> PrepareAuditInputs(
    const BenchOptions& options, Workload workload, uint64_t seed);

/// The fairlaw_audit command line of an audit workload.
std::vector<std::string> AuditArgv(const BenchOptions& options,
                                   Workload workload, const std::string& csv,
                                   int threads);
/// The SuiteConfig fairlaw_audit builds from those flags.
SuiteConfig AuditSuiteConfig(Workload workload, int threads);

/// Checks an audit report's per-group counts and selection rates
/// against the generator's tallies.
FAIRLAW_NODISCARD Status CheckGroupRates(const std::string& report_json,
                                         const Tallies& tallies);

ServeSpec SpecFor(const BenchOptions& options, Workload workload);
/// The fairlaw_serve command line and the ServeConfig it parses into.
std::vector<std::string> ServeArgv(const BenchOptions& options,
                                   Workload workload, int threads);
serve::ServeConfig ServeConfigFor(const BenchOptions& options,
                                  Workload workload, int threads);

/// An in-process serve::Service replay of a session: one response per
/// line, and the seconds each phase took.
struct Replay {
  std::vector<std::string> responses;
  std::vector<double> phase_seconds;
};
/// obs is reset first, so the counters embedded in query frames count
/// from zero as they do in a fresh daemon.
Replay ReplayInProcess(const serve::ServeConfig& config,
                       const ServeSession& session);

/// Checks every response of a daemon session: no error frames, each
/// ingest ack rejects exactly the events the generator marked too late,
/// the closing four_fifths query matches the exact in-window tallies,
/// and every non-stats line equals the in-process replay byte for byte.
void CheckSession(const ServeSession& session, const SessionResult& result,
                  const std::vector<std::string>& replay,
                  const std::string& label, WorkloadReport* report);

/// Seconds from a closed-loop phase's first send to its last response.
double PhaseSeconds(const SessionResult& result, const ServeSession& session,
                    size_t phase);

/// Latencies (ms) of `kind` lines in a paced phase, measured from each
/// line's due time.
std::vector<double> PacedLatenciesMs(const SessionResult& result,
                                     const ServeSession& session, size_t phase,
                                     Line::Kind kind);

/// The daemon sessions `run` plays for a serve workload: serve_ingest's
/// "saturation" and "open_loop", serve_query's "threads4" and "threads1".
struct NamedSession {
  std::string name;
  ServeSession session;
};
std::vector<NamedSession> BuildServeSessions(const BenchOptions& options,
                                             Workload workload, uint64_t seed);

/// Runs one workload end to end with tracing off: the e2e metrics plus
/// every output check.
WorkloadReport RunWorkload(const BenchOptions& options, Workload workload,
                           uint64_t seed);

}  // namespace fairlaw::bench

#endif  // FAIRLAW_BENCH_E2E_WORKLOADS_H_
