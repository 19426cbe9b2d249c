// Fixture: the violations of ../lock-expensive/, suppressed
// via the `detcheck: allow-lock-expensive` escape on the MutexLock
// declaration line — the rule accepts the marker on either the flagged
// call or the guard that opens the section. A scan of this tree must
// report ZERO findings.
#include <cstdio>
#include <string>

#include "base/mutex.h"
#include "base/thread_pool.h"

namespace fairlaw_fixture {

struct LoggedCounter {
  fairlaw::Mutex mu;
  long value = 0;

  void Add(long delta, fairlaw::ThreadPool* pool) {
    fairlaw::MutexLock lock(mu);  // detcheck: allow-lock-expensive
    value += delta;
    std::string rendered = std::to_string(value);
    std::fprintf(stderr, "%s\n", rendered.c_str());
    pool->Submit([] {});
  }
};

}  // namespace fairlaw_fixture
