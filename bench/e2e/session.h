#ifndef FAIRLAW_BENCH_E2E_SESSION_H_
#define FAIRLAW_BENCH_E2E_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "bench/e2e/gen.h"
#include "bench/e2e/proc.h"

/// The serve load generator: one process, two threads, one pipe pair. The
/// calling thread writes request lines to the daemon's stdin — as fast as
/// the pipe accepts in closed-loop phases, at each line's due time in
/// open-loop phases — and a fairlaw::ThreadPool worker reads the daemon's
/// stdout and stamps each response's arrival time.
namespace fairlaw::bench {

struct SessionResult {
  /// Per line, in send order (one response per request, in order).
  std::vector<std::string> responses;
  std::vector<uint64_t> send_ns;
  std::vector<uint64_t> arrive_ns;
  /// Absolute due time of paced lines; 0 for closed-loop lines.
  std::vector<uint64_t> due_ns;
  /// Index of each phase's first line and the phase's start time.
  std::vector<size_t> phase_first;
  std::vector<uint64_t> phase_start_ns;
  uint64_t spawn_ns = 0;
  ExitInfo exit;
};

/// Spawns `argv`, plays `session`, closes stdin, and reaps the daemon.
/// Fails when the daemon dies, stops reading, or leaves a request
/// unanswered within `timeout_ns`.
FAIRLAW_NODISCARD Result<SessionResult> RunSession(
    const std::vector<std::string>& argv, const ServeSession& session,
    uint64_t timeout_ns);

}  // namespace fairlaw::bench

#endif  // FAIRLAW_BENCH_E2E_SESSION_H_
