#include "ml/model_eval.h"

#include "base/string_util.h"

namespace fairlaw::ml {

double ConfusionMatrix::accuracy() const {
  return total() > 0
             ? static_cast<double>(tp + tn) / static_cast<double>(total())
             : 0.0;
}

double ConfusionMatrix::precision() const {
  int64_t pp = predicted_positive();
  return pp > 0 ? static_cast<double>(tp) / static_cast<double>(pp) : 0.0;
}

double ConfusionMatrix::recall() const {
  int64_t ap = actual_positive();
  return ap > 0 ? static_cast<double>(tp) / static_cast<double>(ap) : 0.0;
}

double ConfusionMatrix::false_positive_rate() const {
  int64_t an = actual_negative();
  return an > 0 ? static_cast<double>(fp) / static_cast<double>(an) : 0.0;
}

double ConfusionMatrix::selection_rate() const {
  return total() > 0 ? static_cast<double>(predicted_positive()) /
                           static_cast<double>(total())
                     : 0.0;
}

double ConfusionMatrix::f1() const {
  double p = precision();
  double r = recall();
  return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

std::string ConfusionMatrix::ToString() const {
  return "tp=" + std::to_string(tp) + " fp=" + std::to_string(fp) +
         " tn=" + std::to_string(tn) + " fn=" + std::to_string(fn) +
         " acc=" + FormatDouble(accuracy(), 4);
}

Result<ConfusionMatrix> MakeConfusionMatrix(
    std::span<const int> labels, std::span<const int> predictions) {
  if (labels.size() != predictions.size()) {
    return Status::Invalid("MakeConfusionMatrix: size mismatch");
  }
  if (labels.empty()) {
    return Status::Invalid("MakeConfusionMatrix: empty input");
  }
  ConfusionMatrix cm;
  for (size_t i = 0; i < labels.size(); ++i) {
    if ((labels[i] != 0 && labels[i] != 1) ||
        (predictions[i] != 0 && predictions[i] != 1)) {
      return Status::Invalid("MakeConfusionMatrix: values must be 0/1");
    }
    if (labels[i] == 1) {
      predictions[i] == 1 ? ++cm.tp : ++cm.fn;
    } else {
      predictions[i] == 1 ? ++cm.fp : ++cm.tn;
    }
  }
  return cm;
}

Result<double> Accuracy(std::span<const int> labels,
                        std::span<const int> predictions) {
  FAIRLAW_ASSIGN_OR_RETURN(ConfusionMatrix cm,
                           MakeConfusionMatrix(labels, predictions));
  return cm.accuracy();
}

}  // namespace fairlaw::ml
