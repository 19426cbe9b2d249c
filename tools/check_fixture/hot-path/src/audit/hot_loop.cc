// Deliberate hot-path violations for the fairlaw_check self-test: a
// std::vector<bool> declaration and a per-row string compare inside a
// loop. The final compare carries the escape hatch and must NOT be
// reported (it is counted as suppressed).
#include <cstddef>
#include <string>
#include <vector>

namespace fairlaw {

size_t CountMatchesTheSlowWay(const std::vector<std::string>& groups,
                              const std::string& wanted) {
  std::vector<bool> mask(groups.size(), false);  // violation: hot-path
  size_t count = 0;
  for (size_t row = 0; row < groups.size(); ++row) {
    if (groups[row] == wanted) {  // violation: hot-path string compare
      mask[row] = true;
      ++count;
    }
  }
  size_t suppressed = 0;
  for (size_t row = 0; row < groups.size(); ++row) {
    // lint: allow-hot-path
    if (groups[row] == wanted) ++suppressed;
  }
  return count + suppressed;
}

}  // namespace fairlaw
