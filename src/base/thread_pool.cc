#include "base/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "base/check.h"

namespace fairlaw {

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareThreads();
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    MutexLock lock(mu_);
    FAIRLAW_CHECK_MSG(!shutting_down_,
                      "ThreadPool::Submit after shutdown began");
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
  return future;
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(Submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::unique_ptr<ThreadPool> MorselPool(size_t num_threads,
                                       size_t num_chunks) {
  if (num_threads == 1 || num_chunks <= 1) return nullptr;
  return std::make_unique<ThreadPool>(
      num_threads == 0 ? 0 : std::min(num_threads, num_chunks));
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !shutting_down_) {
        work_available_.Wait(mu_);
      }
      if (queue_.empty()) return;  // shutting down and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures any exception in its future
  }
}

}  // namespace fairlaw
