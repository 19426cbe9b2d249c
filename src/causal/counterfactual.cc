#include "causal/counterfactual.h"

#include "base/check.h"

namespace fairlaw::causal {

Mechanism ConstantMechanism(double value) {
  return [value](std::span<const double>) { return value; };
}

Mechanism LinearMechanism(std::vector<double> weights, double intercept) {
  return [weights = std::move(weights),
          intercept](std::span<const double> parents) {
    FAIRLAW_CHECK_MSG(parents.size() == weights.size(),
                      "LinearMechanism: parent count mismatch");
    double total = intercept;
    for (size_t i = 0; i < parents.size(); ++i) {
      total += weights[i] * parents[i];
    }
    return total;
  };
}

Mechanism ThresholdMechanism(std::vector<double> weights, double intercept) {
  return [weights = std::move(weights),
          intercept](std::span<const double> parents) {
    FAIRLAW_CHECK_MSG(parents.size() == weights.size(),
                      "ThresholdMechanism: parent count mismatch");
    double total = intercept;
    for (size_t i = 0; i < parents.size(); ++i) {
      total += weights[i] * parents[i];
    }
    return total > 0.0 ? 1.0 : 0.0;
  };
}

}  // namespace fairlaw::causal
