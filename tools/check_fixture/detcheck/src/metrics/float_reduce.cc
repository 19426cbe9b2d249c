// Fixture: the violations of ../float-reduction/, each
// suppressed by the `detcheck: allow-float-reduction` escape, so a scan
// of this tree must report ZERO findings.
#include <numeric>
#include <vector>

namespace fairlaw_fixture {

double SumRates(const std::vector<double>& rates) {
  // detcheck: allow-float-reduction (fixture: deliberate scalar baseline)
  return std::accumulate(rates.begin(), rates.end(), 0.0);
}

double SumRatesParallel(const std::vector<double>& rates) {
  return std::reduce(  // detcheck: allow-float-reduction (trailing marker)
      rates.begin(), rates.end(), 0.0);
}

}  // namespace fairlaw_fixture
