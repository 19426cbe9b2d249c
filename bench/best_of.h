#ifndef FAIRLAW_BENCH_BEST_OF_H_
#define FAIRLAW_BENCH_BEST_OF_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/obs.h"

namespace fairlaw::bench {

/// Times `legs` in rounds of one call each, in order, and returns each
/// leg's fastest call in nanoseconds. Runs at least `min_rounds` rounds,
/// and more while all calls together have taken less than
/// `min_total_ns`. Legs whose times a gate divides belong in one call:
/// timed in the same rounds they see the same machine load, where legs
/// timed one after the other can land in a busy and a quiet spell.
inline std::vector<int64_t> BestOfEachNs(
    size_t min_rounds, const std::vector<std::function<void()>>& legs,
    int64_t min_total_ns = 0) {
  std::vector<int64_t> best(legs.size(), 0);
  int64_t total = 0;
  for (size_t r = 0; r < min_rounds || total < min_total_ns; ++r) {
    for (size_t leg = 0; leg < legs.size(); ++leg) {
      const uint64_t start = obs::MonotonicNowNs();
      legs[leg]();
      const int64_t ns = static_cast<int64_t>(obs::MonotonicNowNs() - start);
      if (r == 0 || ns < best[leg]) best[leg] = ns;
      total += ns;
    }
  }
  return best;
}

}  // namespace fairlaw::bench

#endif  // FAIRLAW_BENCH_BEST_OF_H_
