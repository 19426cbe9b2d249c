#include <gtest/gtest.h>

#include "causal/counterfactual.h"
#include "causal/scm.h"

namespace fairlaw::causal {
namespace {

using fairlaw::stats::Rng;

/// A -> X -> Y with additive Gaussian noise on X; A and Y deterministic.
Scm MakeChain() {
  Scm scm;
  EXPECT_TRUE(scm.AddNode({"a", {}, ConstantMechanism(1.0),
                           NoiseSpec::None()})
                  .ok());
  EXPECT_TRUE(scm.AddNode({"x", {"a"}, LinearMechanism({2.0}, 0.5),
                           NoiseSpec::Gaussian(0.0, 1.0)})
                  .ok());
  EXPECT_TRUE(scm.AddNode({"y", {"x"}, LinearMechanism({3.0}, 0.0),
                           NoiseSpec::None()})
                  .ok());
  return scm;
}

TEST(ScmTest, AddNodeValidation) {
  Scm scm;
  EXPECT_TRUE(scm.AddNode({"a", {}, ConstantMechanism(0.0),
                           NoiseSpec::None()})
                  .ok());
  // Duplicate name.
  EXPECT_TRUE(scm.AddNode({"a", {}, ConstantMechanism(0.0),
                           NoiseSpec::None()})
                  .IsAlreadyExists());
  // Unknown parent (also enforces topological order / acyclicity).
  EXPECT_FALSE(scm.AddNode({"b", {"zzz"}, LinearMechanism({1.0}),
                            NoiseSpec::None()})
                   .ok());
  // Missing mechanism.
  EXPECT_FALSE(scm.AddNode({"c", {}, Mechanism(), NoiseSpec::None()}).ok());
  // Bad noise.
  EXPECT_FALSE(scm.AddNode({"d", {}, ConstantMechanism(0.0),
                            NoiseSpec::Gaussian(0.0, -1.0)})
                   .ok());
  EXPECT_FALSE(scm.AddNode({"e", {}, ConstantMechanism(0.0),
                            NoiseSpec::Uniform(2.0, 1.0)})
                   .ok());
}

TEST(ScmTest, SampleMechanisms) {
  Scm scm = MakeChain();
  Rng rng(5);
  ScmSample sample = scm.Sample(5000, &rng).ValueOrDie();
  const std::vector<double>& a = *sample.Values("a").ValueOrDie();
  const std::vector<double>& x = *sample.Values("x").ValueOrDie();
  const std::vector<double>& y = *sample.Values("y").ValueOrDie();
  for (double v : a) EXPECT_DOUBLE_EQ(v, 1.0);
  // x = 2a + 0.5 + N(0,1): mean 2.5.
  double mean_x = 0.0;
  for (double v : x) mean_x += v;
  mean_x /= static_cast<double>(x.size());
  EXPECT_NEAR(mean_x, 2.5, 0.05);
  // y is exactly 3x.
  for (size_t i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(y[i], 3.0 * x[i]);
  EXPECT_FALSE(sample.Values("nope").ok());
}

TEST(ScmTest, DoInterventionSeversMechanism) {
  Scm scm = MakeChain();
  Scm intervened = scm.Do("x", 10.0).ValueOrDie();
  Rng rng(7);
  ScmSample sample = intervened.Sample(10, &rng).ValueOrDie();
  const std::vector<double>& x = *sample.Values("x").ValueOrDie();
  const std::vector<double>& y = *sample.Values("y").ValueOrDie();
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(x[i], 10.0);
    EXPECT_DOUBLE_EQ(y[i], 30.0);
  }
  EXPECT_FALSE(scm.Do("nope", 1.0).ok());
}

TEST(ScmTest, AbductionRecoversNoise) {
  Scm scm = MakeChain();
  Rng rng(9);
  ScmSample sample = scm.Sample(50, &rng).ValueOrDie();
  const std::vector<double>& a = *sample.Values("a").ValueOrDie();
  const std::vector<double>& x = *sample.Values("x").ValueOrDie();
  const std::vector<double>& y = *sample.Values("y").ValueOrDie();
  const std::vector<double>& true_noise = *sample.Noise("x").ValueOrDie();
  for (size_t i = 0; i < 50; ++i) {
    std::vector<double> row = {a[i], x[i], y[i]};
    std::vector<double> noise = scm.Abduct(row).ValueOrDie();
    EXPECT_NEAR(noise[1], true_noise[i], 1e-12);
    EXPECT_NEAR(noise[0], 0.0, 1e-12);
    EXPECT_NEAR(noise[2], 0.0, 1e-12);
  }
}

TEST(ScmTest, CounterfactualConsistency) {
  // Counterfactual with the intervention equal to the observed value must
  // reproduce the observation exactly (Pearl's consistency axiom).
  Scm scm = MakeChain();
  Rng rng(11);
  ScmSample sample = scm.Sample(20, &rng).ValueOrDie();
  const std::vector<double>& a = *sample.Values("a").ValueOrDie();
  const std::vector<double>& x = *sample.Values("x").ValueOrDie();
  const std::vector<double>& y = *sample.Values("y").ValueOrDie();
  for (size_t i = 0; i < 20; ++i) {
    std::vector<double> row = {a[i], x[i], y[i]};
    std::vector<double> cf =
        scm.Counterfactual(row, {{"a", a[i]}}).ValueOrDie();
    EXPECT_NEAR(cf[1], x[i], 1e-12);
    EXPECT_NEAR(cf[2], y[i], 1e-12);
  }
}

TEST(ScmTest, CounterfactualPropagatesIntervention) {
  Scm scm = MakeChain();
  Rng rng(13);
  ScmSample sample = scm.Sample(20, &rng).ValueOrDie();
  const std::vector<double>& a = *sample.Values("a").ValueOrDie();
  const std::vector<double>& x = *sample.Values("x").ValueOrDie();
  const std::vector<double>& y = *sample.Values("y").ValueOrDie();
  for (size_t i = 0; i < 20; ++i) {
    std::vector<double> row = {a[i], x[i], y[i]};
    std::vector<double> cf =
        scm.Counterfactual(row, {{"a", 0.0}}).ValueOrDie();
    // a: 1 -> 0 shifts x by exactly -2 (same noise), y by -6.
    EXPECT_NEAR(cf[1], x[i] - 2.0, 1e-12);
    EXPECT_NEAR(cf[2], y[i] - 6.0, 1e-12);
  }
  // Unknown intervention node fails.
  std::vector<double> row = {1.0, 2.0, 6.0};
  EXPECT_FALSE(scm.Counterfactual(row, {{"zzz", 0.0}}).ok());
  std::vector<double> short_row = {1.0};
  EXPECT_FALSE(scm.Counterfactual(short_row, {{"a", 0.0}}).ok());
}

TEST(MechanismTest, Threshold) {
  Mechanism threshold = ThresholdMechanism({1.0, -1.0}, 0.0);
  std::vector<double> gt = {2.0, 1.0};
  std::vector<double> lt = {1.0, 2.0};
  std::vector<double> eq = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(threshold(gt), 1.0);
  EXPECT_DOUBLE_EQ(threshold(lt), 0.0);
  EXPECT_DOUBLE_EQ(threshold(eq), 0.0);  // strict inequality
}

}  // namespace
}  // namespace fairlaw::causal
