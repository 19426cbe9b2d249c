#include "bench/e2e/proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/string_util.h"
#include "obs/obs.h"

extern char** environ;

namespace fairlaw::bench {

namespace {

void CloseFd(int* fd) {
  if (*fd >= 0) close(*fd);
  *fd = -1;
}

/// Milliseconds until `deadline_ns` for poll(), at least 1 so a wait
/// that is due never spins, at most `cap_ms`, and -1 once the deadline
/// has passed.
int PollTimeoutMs(uint64_t deadline_ns, uint64_t cap_ms = 1000) {
  const uint64_t now = obs::MonotonicNowNs();
  if (now >= deadline_ns) return -1;
  const uint64_t ms = (deadline_ns - now) / 1000000 + 1;
  return static_cast<int>(ms > cap_ms ? cap_ms : ms);
}

/// How often a run-to-completion child's peak RSS is sampled.
constexpr uint64_t kRssSampleMs = 50;

}  // namespace

Result<Process> Process::Spawn(const std::vector<std::string>& argv,
                               bool with_stdin) {
  if (argv.empty()) return Status::Invalid("Spawn: empty argv");
  int out_pipe[2] = {-1, -1};
  int in_pipe[2] = {-1, -1};
  if (pipe2(out_pipe, O_CLOEXEC) != 0 ||
      (with_stdin && pipe2(in_pipe, O_CLOEXEC) != 0)) {
    for (int* fd : {&out_pipe[0], &out_pipe[1], &in_pipe[0], &in_pipe[1]}) {
      CloseFd(fd);
    }
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (with_stdin) {
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
  }
  // dup2 clears close-on-exec on the target; the pipe originals carry
  // O_CLOEXEC, so the child holds exactly its stdin/stdout ends.
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  Process process;
  process.spawn_ns_ = obs::MonotonicNowNs();
  const int rc = posix_spawn(&process.pid_, argv[0].c_str(), &actions,
                             nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  CloseFd(&out_pipe[1]);
  CloseFd(&in_pipe[0]);
  if (rc != 0) {
    process.pid_ = -1;
    CloseFd(&out_pipe[0]);
    CloseFd(&in_pipe[1]);
    return Status::IOError("cannot run '" + argv[0] +
                           "': " + std::strerror(rc));
  }
  process.stdout_fd_ = out_pipe[0];
  process.stdin_fd_ = in_pipe[1];
  // Our end of stdin never blocks, so WriteAll can honor its deadline
  // even when the child stops reading.
  if (process.stdin_fd_ >= 0) {
    fcntl(process.stdin_fd_, F_SETFL,
          fcntl(process.stdin_fd_, F_GETFL) | O_NONBLOCK);
  }
  return process;
}

Process::Process(Process&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdin_fd_(std::exchange(other.stdin_fd_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      spawn_ns_(other.spawn_ns_),
      peak_rss_kb_(other.peak_rss_kb_) {}

Process& Process::operator=(Process&& other) noexcept {
  if (this != &other) {
    Release();
    pid_ = std::exchange(other.pid_, -1);
    stdin_fd_ = std::exchange(other.stdin_fd_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    spawn_ns_ = other.spawn_ns_;
    peak_rss_kb_ = other.peak_rss_kb_;
  }
  return *this;
}

Process::~Process() { Release(); }

void Process::Release() {
  CloseFd(&stdin_fd_);
  CloseFd(&stdout_fd_);
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
}

void Process::CloseStdin() { CloseFd(&stdin_fd_); }

void Process::Kill() {
  if (pid_ > 0) kill(pid_, SIGKILL);
}

void Process::SamplePeakRss() {
  if (pid_ <= 0) return;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    Result<int64_t> kb = ParseInt64(
        std::string_view(line).substr(6, line.size() - 6 - 3));  // "kB"
    if (kb.ok() && *kb > peak_rss_kb_) peak_rss_kb_ = *kb;
    return;
  }
}

Result<ExitInfo> Process::Wait() {
  CloseFd(&stdin_fd_);
  CloseFd(&stdout_fd_);
  if (pid_ <= 0) return Status::FailedPrecondition("Wait: no child");
  int status = 0;
  pid_t reaped = -1;
  do {
    reaped = waitpid(pid_, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  pid_ = -1;
  if (reaped < 0) {
    return Status::IOError(std::string("waitpid: ") + std::strerror(errno));
  }
  ExitInfo info;
  info.end_ns = obs::MonotonicNowNs();
  info.peak_rss_kb = peak_rss_kb_;
  if (WIFEXITED(status)) info.exit_code = WEXITSTATUS(status);
  return info;
}

Result<Invocation> RunToCompletion(const std::vector<std::string>& argv,
                                   uint64_t timeout_ns) {
  FAIRLAW_ASSIGN_OR_RETURN(Process process, Process::Spawn(argv, false));
  const uint64_t deadline = process.spawn_ns() + timeout_ns;
  Invocation invocation;
  char buffer[1 << 16];
  while (true) {
    const int timeout_ms = PollTimeoutMs(deadline, kRssSampleMs);
    if (timeout_ms < 0) {
      process.Kill();
      return Status::IOError("'" + argv[0] + "' did not finish in time");
    }
    struct pollfd pfd = {process.stdout_fd(), POLLIN, 0};
    const int ready = poll(&pfd, 1, timeout_ms);
    process.SamplePeakRss();
    if (ready < 0 && errno != EINTR) {
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    const ssize_t n = read(process.stdout_fd(), buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) break;
    invocation.out.append(buffer, static_cast<size_t>(n));
  }
  FAIRLAW_ASSIGN_OR_RETURN(invocation.exit, process.Wait());
  invocation.wall_ns = invocation.exit.end_ns - process.spawn_ns();
  return invocation;
}

Status WriteAll(int fd, std::string_view data, uint64_t deadline_ns) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = write(fd, data.data() + offset, data.size() - offset);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN) {
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    const int timeout_ms = PollTimeoutMs(deadline_ns);
    if (timeout_ms < 0) {
      return Status::IOError("write: the child stopped reading its input");
    }
    struct pollfd pfd = {fd, POLLOUT, 0};
    if (poll(&pfd, 1, timeout_ms) < 0 && errno != EINTR) {
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read '" + path + "'");
  std::stringstream text;
  text << in.rdbuf();
  if (in.bad()) return Status::IOError("error reading '" + path + "'");
  return text.str();
}

void SleepUntil(uint64_t deadline_ns) {
  struct timespec when;
  when.tv_sec = static_cast<time_t>(deadline_ns / 1000000000);
  when.tv_nsec = static_cast<long>(deadline_ns % 1000000000);
  // obs::MonotonicNowNs reads steady_clock, which is CLOCK_MONOTONIC.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &when, nullptr) ==
         EINTR) {
  }
}

}  // namespace fairlaw::bench
