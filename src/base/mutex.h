#ifndef FAIRLAW_BASE_MUTEX_H_
#define FAIRLAW_BASE_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "base/thread_annotations.h"

/// Annotated synchronization primitives.
///
/// libstdc++'s std::mutex carries no thread-safety attributes, so Clang's
/// -Wthread-safety analysis cannot check code that locks it directly.
/// These thin wrappers put the capability annotations on the fairlaw
/// side: declare shared state FAIRLAW_GUARDED_BY(mu_) and the Clang CI
/// job rejects any access path that does not hold the mutex. Concurrency
/// in fairlaw goes through these types — fairlaw_check bans raw
/// std::thread and sleep-based synchronization outside base/.

namespace fairlaw {

/// Annotated exclusive lock over std::mutex.
class FAIRLAW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FAIRLAW_ACQUIRE() { mu_.lock(); }
  void Unlock() FAIRLAW_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock; the scoped-capability annotation lets the analysis treat
/// the guard's lifetime as the critical section.
class FAIRLAW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FAIRLAW_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() FAIRLAW_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with fairlaw::Mutex. Wait atomically
/// releases and reacquires the mutex; as far as the thread-safety
/// analysis is concerned the capability is held across the call, which
/// matches how guarded state may be accessed around it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) FAIRLAW_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the re-acquired mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fairlaw

#endif  // FAIRLAW_BASE_MUTEX_H_
