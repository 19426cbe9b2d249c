// Deliberate hot-path violation for the fairlaw_check self-test: a
// per-row ValueToString call inside a loop. The call before the loop is
// not per-row, and the last one carries the escape hatch; neither may be
// reported (the second is counted as suppressed).
#include <cstddef>
#include <string>

namespace fairlaw {

struct Column {
  std::string ValueToString(size_t row) const;
  size_t size() const;
};

size_t CountRendered(const Column& column) {
  const std::string first = column.ValueToString(0);
  size_t count = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    if (column.ValueToString(row) == first) ++count;  // violation
  }
  for (size_t row = 0; row < column.size(); ++row) {
    // lint: allow-hot-path
    if (column.ValueToString(row).empty()) ++count;
  }
  return count;
}

}  // namespace fairlaw
