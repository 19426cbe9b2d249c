// Fixture: the violations of ../unordered-iteration/, each
// suppressed by the `detcheck: allow-unordered-iteration` escape, so a
// scan of this tree must report ZERO findings (and count 2 suppressed).
#include <string>
#include <unordered_map>

namespace fairlaw_fixture {

struct Report {
  std::unordered_map<std::string, double> per_group;

  double ExportSum() const {
    double sum = 0.0;
    // detcheck: allow-unordered-iteration (fixture: marker on line above)
    for (const auto& [name, value] : per_group) {
      sum = sum * 2.0 + value;
    }
    return sum;
  }

  double FirstByIterator() const {
    auto it = per_group.begin();  // detcheck: allow-unordered-iteration
    return it->second;
  }
};

}  // namespace fairlaw_fixture
