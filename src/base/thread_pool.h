#ifndef FAIRLAW_BASE_THREAD_POOL_H_
#define FAIRLAW_BASE_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace fairlaw {

/// std::thread::hardware_concurrency(), or 1 when that is unknown.
size_t HardwareThreads();

/// Fixed-size worker pool over a shared task queue.
///
/// This is the one place in fairlaw that owns std::thread (fairlaw_check
/// enforces that); everything above base/ expresses parallelism as
/// Submit/ParallelFor so the audit pipeline stays deterministic and
/// TSan/-Wthread-safety checkable.
///
/// Semantics:
///   * Tasks run in FIFO submission order, each on whichever worker is
///     free; completion order is unspecified.
///   * The destructor drains the queue (already-submitted tasks run to
///     completion) and joins every worker.
///   * A task exception is captured in the task's future and rethrown by
///     future.get(); it never takes down a worker.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means HardwareThreads().
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn`; the returned future carries its completion or
  /// exception. Must not be called after the destructor has begun.
  std::future<void> Submit(std::function<void()> fn) FAIRLAW_EXCLUDES(mu_);

  /// Runs fn(0) ... fn(n-1) across the pool and blocks until every call
  /// finished. If calls throw, the exception of the lowest index is
  /// rethrown (the rest are discarded), so failure behavior does not
  /// depend on scheduling. Not reentrant: calling it from inside a pool
  /// task deadlocks a worker.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      FAIRLAW_EXCLUDES(mu_);

 private:
  void WorkerLoop() FAIRLAW_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_available_;
  std::deque<std::packaged_task<void()>> queue_ FAIRLAW_GUARDED_BY(mu_);
  bool shutting_down_ FAIRLAW_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// The one rule for when a step that splits its work into `num_chunks`
/// chunks gets a pool: none for one thread or at most one chunk, else
/// min(num_threads, num_chunks) workers (0 = one per hardware thread).
/// The streamed audit's morsel loop, the pooled whole-table CSV read and
/// the score-distribution loop all ask it.
std::unique_ptr<ThreadPool> MorselPool(size_t num_threads, size_t num_chunks);

}  // namespace fairlaw

#endif  // FAIRLAW_BASE_THREAD_POOL_H_
