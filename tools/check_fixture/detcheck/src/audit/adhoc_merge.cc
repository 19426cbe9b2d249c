// Fixture: the violations of ../merge-order/, each
// suppressed by the `detcheck: allow-merge-order` escape, so a scan of
// this tree must report ZERO findings.
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
      total += values[i];                    // detcheck: allow-merge-order
      flagged.push_back(std::to_string(i));  // detcheck: allow-merge-order
      ++done;                                // detcheck: allow-merge-order
    });
  }
  return total;
}

double AccumulateViaNamedTask(const std::vector<double>& values) {
  fairlaw::ThreadPool pool(4);
  double total = 0.0;
  auto task = [&total, &values](size_t i) {
    total += values[i];  // detcheck: allow-merge-order
  };
  pool.ParallelFor(values.size(), task);
  return total;
}

}  // namespace fairlaw_fixture
