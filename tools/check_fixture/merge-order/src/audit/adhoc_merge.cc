// Fixture: merge-order. Workers accumulating straight into
// captured-by-reference state publish results in completion order,
// which varies run to run. Not compiled; scanned by the
// fairlaw_check self-test.
#include <string>
#include <vector>

#include "base/thread_pool.h"

namespace fairlaw_fixture {

double AccumulateUnordered(const std::vector<double>& values) {
  fairlaw::ThreadPool pool(4);
  double total = 0.0;
  std::vector<std::string> flagged;
  size_t done = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    pool.Submit([&, i] {
      total += values[i];                    // finding: shared accumulator
      flagged.push_back(std::to_string(i));  // finding: completion order
      ++done;                                // finding: shared counter
    });
  }
  return total;
}

double AccumulateViaNamedTask(const std::vector<double>& values) {
  fairlaw::ThreadPool pool(4);
  double total = 0.0;
  auto task = [&total, &values](size_t i) {
    total += values[i];  // finding: named task, followed to its definition
  };
  pool.ParallelFor(values.size(), task);
  return total;
}

}  // namespace fairlaw_fixture
