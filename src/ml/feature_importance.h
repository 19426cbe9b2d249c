#ifndef FAIRLAW_ML_FEATURE_IMPORTANCE_H_
#define FAIRLAW_ML_FEATURE_IMPORTANCE_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "ml/dataset.h"

namespace fairlaw::ml {

/// Importance score for one feature.
struct FeatureImportance {
  std::string feature;
  double importance = 0.0;
};

/// Coefficient attributions for a linear model: |weight_j| * stddev of
/// feature j over `data` (the contribution scale of each feature to the
/// logit).
FAIRLAW_NODISCARD Result<std::vector<FeatureImportance>> LinearAttribution(
    const std::vector<double>& weights, const Dataset& data);

}  // namespace fairlaw::ml

#endif  // FAIRLAW_ML_FEATURE_IMPORTANCE_H_
