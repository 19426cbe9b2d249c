// Fixture: unordered-iteration. Iterating a hash container in
// an output-contributing tree leaks implementation-defined order into
// the merged findings. Not compiled; scanned by the fairlaw_check self-test.
#include <string>
#include <unordered_map>

namespace fairlaw_fixture {

struct Report {
  std::unordered_map<std::string, double> per_group;

  double ExportSum() const {
    double sum = 0.0;
    for (const auto& [name, value] : per_group) {  // finding: hash order
      sum = sum * 2.0 + value;                     // order-sensitive fold
    }
    return sum;
  }

  double FirstByIterator() const {
    auto it = per_group.begin();  // finding: explicit hash iteration
    return it->second;
  }
};

}  // namespace fairlaw_fixture
