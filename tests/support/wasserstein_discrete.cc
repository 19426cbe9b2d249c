#include "support/wasserstein_discrete.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace fairlaw::stats {

double Wasserstein1Discrete(std::span<const double> support_p,
                            std::span<const double> p,
                            std::span<const double> support_q,
                            std::span<const double> q) {
  std::vector<double> grid;
  grid.reserve(support_p.size() + support_q.size());
  grid.insert(grid.end(), support_p.begin(), support_p.end());
  grid.insert(grid.end(), support_q.begin(), support_q.end());
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  double total = 0.0;
  double cdf_p = 0.0;
  double cdf_q = 0.0;
  size_t ip = 0;
  size_t iq = 0;
  for (size_t g = 0; g + 1 < grid.size(); ++g) {
    while (ip < support_p.size() && support_p[ip] <= grid[g]) {
      cdf_p += p[ip++];
    }
    while (iq < support_q.size() && support_q[iq] <= grid[g]) {
      cdf_q += q[iq++];
    }
    total += std::fabs(cdf_p - cdf_q) * (grid[g + 1] - grid[g]);
  }
  return total;
}

}  // namespace fairlaw::stats
