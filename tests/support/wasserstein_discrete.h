#ifndef FAIRLAW_TESTS_SUPPORT_WASSERSTEIN_DISCRETE_H_
#define FAIRLAW_TESTS_SUPPORT_WASSERSTEIN_DISCRETE_H_

#include <span>

namespace fairlaw::stats {

/// Reference Wasserstein-1 between two discrete distributions on the
/// real line: the integral of |F_p(t) - F_q(t)| swept over the merged
/// support. Each support is strictly increasing and as long as its
/// probability vector, and neither is empty. The transport tests check
/// ExactTransport's optimal cost against it.
double Wasserstein1Discrete(std::span<const double> support_p,
                            std::span<const double> p,
                            std::span<const double> support_q,
                            std::span<const double> q);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_TESTS_SUPPORT_WASSERSTEIN_DISCRETE_H_
