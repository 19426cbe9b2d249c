// Deliberate timing-source violation for the fairlaw_check self-test: a
// raw steady_clock read outside src/obs/, banned in favour of
// obs::MonotonicNowNs().
#include <chrono>
#include <cstdint>

namespace fairlaw {

int64_t ReadRawMonotonicClock() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace fairlaw
