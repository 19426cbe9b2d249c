#ifndef FAIRLAW_BENCH_E2E_PROC_H_
#define FAIRLAW_BENCH_E2E_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

/// Child processes for the end-to-end benchmark: the real fairlaw_audit
/// and fairlaw_serve binaries run as children connected by pipes.
namespace fairlaw::bench {

/// How a child ended.
struct ExitInfo {
  int exit_code = -1;       // -1 when killed by a signal
  /// Highest VmHWM sampled while the child ran. Not ru_maxrss: Linux
  /// folds the spawning process's peak RSS into the child's at exec.
  int64_t peak_rss_kb = 0;
  uint64_t end_ns = 0;      // obs::MonotonicNowNs() when it was reaped
};

/// A running child with its stdout on a pipe and, optionally, its stdin
/// on another. The destructor kills and reaps a child that was not
/// waited for, so no exit path leaves a process behind.
class Process {
 public:
  /// Spawns argv[0] (a path) with `argv`. stderr is inherited; stdin is
  /// a pipe when `with_stdin`, else /dev/null.
  FAIRLAW_NODISCARD static Result<Process> Spawn(
      const std::vector<std::string>& argv, bool with_stdin);

  Process(Process&& other) noexcept;
  Process& operator=(Process&& other) noexcept;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  int stdin_fd() const { return stdin_fd_; }
  int stdout_fd() const { return stdout_fd_; }
  uint64_t spawn_ns() const { return spawn_ns_; }

  /// Closes the write end of the child's stdin (the child sees EOF).
  void CloseStdin();
  /// Sends SIGKILL (used when a child stops responding).
  void Kill();
  /// Reads the child's peak RSS so far (VmHWM) into the running maximum
  /// Wait() reports.
  void SamplePeakRss();
  /// Reaps the child; closes both pipe ends first.
  FAIRLAW_NODISCARD Result<ExitInfo> Wait();

 private:
  Process() = default;
  void Release();

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint64_t spawn_ns_ = 0;
  int64_t peak_rss_kb_ = 0;
};

/// A finished run-to-completion child (the audit invocations).
struct Invocation {
  ExitInfo exit;
  std::string out;
  uint64_t wall_ns = 0;  // spawn to reap
};

/// Runs `argv` with stdin on /dev/null, collecting stdout. Fails if the
/// child does not finish within `timeout_ns`.
FAIRLAW_NODISCARD Result<Invocation> RunToCompletion(
    const std::vector<std::string>& argv, uint64_t timeout_ns);

/// Writes all of `data` to `fd`, waiting at most until `deadline_ns` for
/// the pipe to accept it.
FAIRLAW_NODISCARD Status WriteAll(int fd, std::string_view data,
                                  uint64_t deadline_ns);

/// Reads `path` fully (page-cache warm-up and cached inputs).
FAIRLAW_NODISCARD Result<std::string> ReadFile(const std::string& path);

/// Blocks until obs::MonotonicNowNs() reaches `deadline_ns`.
void SleepUntil(uint64_t deadline_ns);

}  // namespace fairlaw::bench

#endif  // FAIRLAW_BENCH_E2E_PROC_H_
