#ifndef FAIRLAW_CAUSAL_COUNTERFACTUAL_H_
#define FAIRLAW_CAUSAL_COUNTERFACTUAL_H_

#include <vector>

#include "causal/scm.h"

namespace fairlaw::causal {

/// Mechanism returning a constant (for root nodes).
Mechanism ConstantMechanism(double value);

/// Linear mechanism: intercept + sum_i weights[i] * parent[i].
Mechanism LinearMechanism(std::vector<double> weights, double intercept = 0.0);

/// Threshold mechanism: 1 if (intercept + sum_i weights[i]*parent[i]) > 0,
/// else 0. Deterministic — use with NoiseSpec::None() and put the noise
/// into a latent parent so abduction stays exact.
Mechanism ThresholdMechanism(std::vector<double> weights,
                             double intercept = 0.0);

}  // namespace fairlaw::causal

#endif  // FAIRLAW_CAUSAL_COUNTERFACTUAL_H_
