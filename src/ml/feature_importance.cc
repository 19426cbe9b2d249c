#include "ml/feature_importance.h"

#include <cmath>

namespace fairlaw::ml {

Result<std::vector<FeatureImportance>> LinearAttribution(
    const std::vector<double>& weights, const Dataset& data) {
  FAIRLAW_RETURN_NOT_OK(data.Validate());
  if (weights.size() != data.num_features()) {
    return Status::Invalid("LinearAttribution: weight/feature mismatch");
  }
  const size_t d = weights.size();
  const size_t n = data.size();
  std::vector<FeatureImportance> importances(d);
  for (size_t j = 0; j < d; ++j) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += data.features[i][j];
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double diff = data.features[i][j] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(n);
    importances[j].feature =
        j < data.feature_names.size() ? data.feature_names[j]
                                      : std::string("f").append(std::to_string(j));
    importances[j].importance = std::fabs(weights[j]) * std::sqrt(var);
  }
  return importances;
}

}  // namespace fairlaw::ml
