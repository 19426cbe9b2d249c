#include <gtest/gtest.h>

#include <cmath>

#include "stats/ot.h"
#include "stats/rng.h"
#include "support/wasserstein_discrete.h"

namespace fairlaw::stats {
namespace {

using V = std::vector<double>;

std::vector<std::vector<double>> AbsCost(const std::vector<double>& xs,
                                         const std::vector<double>& ys) {
  std::vector<std::vector<double>> cost(xs.size(),
                                        std::vector<double>(ys.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < ys.size(); ++j) {
      cost[i][j] = std::fabs(xs[i] - ys[j]);
    }
  }
  return cost;
}

TEST(ExactTransportTest, IdentityCostZero) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<std::vector<double>> cost = {{0.0, 1.0}, {1.0, 0.0}};
  TransportPlan plan = ExactTransport(p, p, cost).ValueOrDie();
  EXPECT_NEAR(plan.cost, 0.0, 1e-9);
  EXPECT_NEAR(plan.plan[0][0], 0.5, 1e-9);
  EXPECT_NEAR(plan.plan[1][1], 0.5, 1e-9);
}

TEST(ExactTransportTest, SimpleSwap) {
  // All mass at atom 0 must move to atom 1.
  std::vector<double> p = {1.0, 0.0};
  std::vector<double> q = {0.0, 1.0};
  std::vector<std::vector<double>> cost = {{0.0, 2.0}, {2.0, 0.0}};
  TransportPlan plan = ExactTransport(p, q, cost).ValueOrDie();
  EXPECT_NEAR(plan.cost, 2.0, 1e-9);
  EXPECT_NEAR(plan.plan[0][1], 1.0, 1e-9);
}

TEST(Wasserstein1DiscreteTest, MatchesHandComputation) {
  // p: mass 1 at 0. q: mass 1 at 3. W1 = 3.
  EXPECT_NEAR(Wasserstein1Discrete(V{0.0}, V{1.0}, V{3.0}, V{1.0}), 3.0,
              1e-12);
  // p uniform on {0,1}, q uniform on {1,2}: W1 = 1.
  EXPECT_NEAR(Wasserstein1Discrete(V{0.0, 1.0}, V{0.5, 0.5}, V{1.0, 2.0},
                                   V{0.5, 0.5}),
              1.0, 1e-12);
}

TEST(ExactTransportTest, MatchesWasserstein1OnTheLine) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 3 + rng.UniformInt(4);
    size_t m = 3 + rng.UniformInt(4);
    std::vector<double> xs(n);
    std::vector<double> ys(m);
    for (double& v : xs) v = rng.Uniform(0.0, 10.0);
    for (double& v : ys) v = rng.Uniform(0.0, 10.0);
    std::sort(xs.begin(), xs.end());
    std::sort(ys.begin(), ys.end());
    // Strictly increasing supports (dedupe).
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
    ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
    std::vector<double> p(xs.size(), 1.0 / static_cast<double>(xs.size()));
    std::vector<double> q(ys.size(), 1.0 / static_cast<double>(ys.size()));

    TransportPlan plan = ExactTransport(p, q, AbsCost(xs, ys)).ValueOrDie();
    double w1 = Wasserstein1Discrete(xs, p, ys, q);
    EXPECT_NEAR(plan.cost, w1, 1e-6);
  }
}

TEST(ExactTransportTest, PlanMarginalsMatch) {
  std::vector<double> p = {0.2, 0.3, 0.5};
  std::vector<double> q = {0.6, 0.4};
  std::vector<std::vector<double>> cost = {{1.0, 4.0}, {2.0, 1.0},
                                           {3.0, 2.0}};
  TransportPlan plan = ExactTransport(p, q, cost).ValueOrDie();
  for (size_t i = 0; i < p.size(); ++i) {
    double row = 0.0;
    for (size_t j = 0; j < q.size(); ++j) row += plan.plan[i][j];
    EXPECT_NEAR(row, p[i], 1e-9);
  }
  for (size_t j = 0; j < q.size(); ++j) {
    double col = 0.0;
    for (size_t i = 0; i < p.size(); ++i) col += plan.plan[i][j];
    EXPECT_NEAR(col, q[j], 1e-9);
  }
}

TEST(ExactTransportTest, RejectsBadInput) {
  EXPECT_FALSE(ExactTransport(V{1.0}, V{0.5}, {{1.0}}).ok());  // unbalanced
  EXPECT_FALSE(ExactTransport(V{1.0}, V{1.0}, {{-1.0}}).ok());
  EXPECT_FALSE(ExactTransport(V{}, V{}, {}).ok());
  EXPECT_FALSE(ExactTransport(V{1.0}, V{1.0}, {{1.0, 2.0}}).ok());
}

}  // namespace
}  // namespace fairlaw::stats
