#include "bench/e2e/session.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>

#include "base/mutex.h"
#include "base/thread_pool.h"
#include "obs/obs.h"

namespace fairlaw::bench {

namespace {

/// What the writer needs to know about the reader's progress.
struct ReaderProgress {
  Mutex mu;
  CondVar changed;
  size_t received FAIRLAW_GUARDED_BY(mu) = 0;
  bool done FAIRLAW_GUARDED_BY(mu) = false;
};

/// Reader body: splits the daemon's stdout into lines, stamping each
/// with the time the read that completed it returned. Only this task
/// touches `responses`/`arrive_ns` until its future is consumed.
Status ReadResponses(int fd, uint64_t deadline_ns,
                     std::vector<std::string>* responses,
                     std::vector<uint64_t>* arrive_ns,
                     ReaderProgress* progress) {
  Status status;
  std::string pending;
  char buffer[1 << 16];
  while (true) {
    const uint64_t now = obs::MonotonicNowNs();
    if (now >= deadline_ns) {
      status = Status::IOError("the daemon left requests unanswered");
      break;
    }
    const uint64_t wait_ms = (deadline_ns - now) / 1000000 + 1;
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready =
        poll(&pfd, 1, wait_ms > 1000 ? 1000 : static_cast<int>(wait_ms));
    if (ready < 0 && errno != EINTR) {
      status = Status::IOError(std::string("poll: ") + std::strerror(errno));
      break;
    }
    if (ready <= 0) continue;
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      status = Status::IOError(std::string("read: ") + std::strerror(errno));
      break;
    }
    if (n == 0) break;
    const uint64_t arrived = obs::MonotonicNowNs();
    pending.append(buffer, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t end = pending.find('\n'); end != std::string::npos;
         end = pending.find('\n', start)) {
      responses->emplace_back(pending, start, end - start);
      arrive_ns->push_back(arrived);
      start = end + 1;
    }
    pending.erase(0, start);
    {
      MutexLock lock(progress->mu);
      progress->received = responses->size();
    }
    progress->changed.NotifyAll();
  }
  {
    MutexLock lock(progress->mu);
    progress->done = true;
  }
  progress->changed.NotifyAll();
  return status;
}

/// Blocks until `count` responses arrived; false if the reader stopped
/// first.
bool AwaitResponses(ReaderProgress* progress, size_t count) {
  MutexLock lock(progress->mu);
  while (progress->received < count && !progress->done) {
    progress->changed.Wait(progress->mu);
  }
  return progress->received >= count;
}

/// The writer: plays every phase in order, recording send and due times.
Status WriteSession(const ServeSession& session, Process* daemon,
                    uint64_t deadline_ns, ReaderProgress* progress,
                    SessionResult* result) {
  std::string scratch;
  size_t sent = 0;
  for (const Phase& phase : session.phases) {
    if (!AwaitResponses(progress, sent)) {
      return Status::IOError("the daemon exited before phase '" + phase.name +
                             "'");
    }
    const uint64_t phase_start = obs::MonotonicNowNs();
    result->phase_first.push_back(sent);
    result->phase_start_ns.push_back(phase_start);
    for (const Line& line : phase.lines) {
      uint64_t due = 0;
      if (phase.paced) {
        due = phase_start + line.due_ns;
        if (obs::MonotonicNowNs() < due) SleepUntil(due);
      }
      scratch.assign(line.text);
      scratch.push_back('\n');
      result->due_ns.push_back(due);
      result->send_ns.push_back(obs::MonotonicNowNs());
      FAIRLAW_RETURN_NOT_OK(WriteAll(daemon->stdin_fd(), scratch, deadline_ns));
      ++sent;
    }
  }
  return Status::OK();
}

}  // namespace

Result<SessionResult> RunSession(const std::vector<std::string>& argv,
                                 const ServeSession& session,
                                 uint64_t timeout_ns) {
  FAIRLAW_ASSIGN_OR_RETURN(Process daemon, Process::Spawn(argv, true));
  const uint64_t deadline = daemon.spawn_ns() + timeout_ns;
  SessionResult result;
  result.spawn_ns = daemon.spawn_ns();
  result.send_ns.reserve(session.total_lines);
  result.due_ns.reserve(session.total_lines);
  result.responses.reserve(session.total_lines);
  result.arrive_ns.reserve(session.total_lines);
  ReaderProgress progress;
  Status write_status;
  Status read_status;
  {
    // Declared after everything the reader touches, so the pool joins
    // its worker before any of it goes away.
    ThreadPool pool(1);
    std::future<void> reader = pool.Submit([&] {
      read_status = ReadResponses(daemon.stdout_fd(), deadline,
                                  &result.responses, &result.arrive_ns,
                                  &progress);
    });
    write_status = WriteSession(session, &daemon, deadline, &progress, &result);
    // Every request answered, the daemon idle and alive: its peak RSS is
    // final.
    if (write_status.ok() && AwaitResponses(&progress, session.total_lines)) {
      daemon.SamplePeakRss();
    }
    daemon.CloseStdin();
    if (!write_status.ok()) daemon.Kill();
    reader.get();
  }
  if (!read_status.ok()) daemon.Kill();
  FAIRLAW_ASSIGN_OR_RETURN(result.exit, daemon.Wait());
  FAIRLAW_RETURN_NOT_OK(write_status);
  FAIRLAW_RETURN_NOT_OK(read_status);
  if (result.responses.size() != session.total_lines) {
    return Status::IOError("the daemon answered " +
                           std::to_string(result.responses.size()) + " of " +
                           std::to_string(session.total_lines) + " requests");
  }
  return result;
}

}  // namespace fairlaw::bench
