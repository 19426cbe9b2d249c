// Fixture: float-reduction. Reduction order over floating
// values changes the result in the last ulp, so exported numbers must
// flow through the fixed-order helpers in stats/. Not compiled; scanned
// by the fairlaw_check self-test.
#include <numeric>
#include <vector>

namespace fairlaw_fixture {

double SumRates(const std::vector<double>& rates) {
  return std::accumulate(rates.begin(), rates.end(), 0.0);  // finding
}

double SumRatesParallel(const std::vector<double>& rates) {
  return std::reduce(rates.begin(), rates.end(), 0.0);  // finding
}

}  // namespace fairlaw_fixture
