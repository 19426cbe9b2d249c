// Fixture: lock-expensive. I/O, formatting, and pool
// submission inside a critical section serialize every other thread
// behind the slow call. Not compiled; scanned by the
// fairlaw_check self-test.
#include <cstdio>
#include <string>

#include "base/mutex.h"
#include "base/thread_pool.h"

namespace fairlaw_fixture {

struct LoggedCounter {
  fairlaw::Mutex mu;
  long value = 0;

  void Add(long delta, fairlaw::ThreadPool* pool) {
    fairlaw::MutexLock lock(mu);
    value += delta;
    std::string rendered = std::to_string(value);      // finding: formatting
    std::fprintf(stderr, "%s\n", rendered.c_str());    // finding: I/O
    pool->Submit([] {});                               // finding: submission
  }
};

}  // namespace fairlaw_fixture
