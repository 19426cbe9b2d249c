#ifndef FAIRLAW_ML_MODEL_EVAL_H_
#define FAIRLAW_ML_MODEL_EVAL_H_

#include <span>
#include <string>
#include <vector>

#include "base/result.h"

namespace fairlaw::ml {

/// Binary confusion matrix. Convention: positive = label 1 (the favorable
/// outcome).
struct ConfusionMatrix {
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t tn = 0;
  int64_t fn = 0;

  int64_t total() const { return tp + fp + tn + fn; }
  int64_t actual_positive() const { return tp + fn; }
  int64_t actual_negative() const { return tn + fp; }
  int64_t predicted_positive() const { return tp + fp; }

  double accuracy() const;
  /// TP / predicted positive; 0 when no positive predictions.
  double precision() const;
  /// True positive rate TP / actual positive; 0 when no actual positives.
  double recall() const;
  /// False positive rate FP / actual negative; 0 when no actual negatives.
  double false_positive_rate() const;
  /// Predicted-positive fraction (the "selection rate" of fairness
  /// metrics).
  double selection_rate() const;
  double f1() const;

  std::string ToString() const;
};

/// Builds a confusion matrix from aligned label / prediction vectors
/// (values must be 0/1).
FAIRLAW_NODISCARD Result<ConfusionMatrix> MakeConfusionMatrix(std::span<const int> labels,
                                            std::span<const int> predictions);

/// Fraction of matching entries.
FAIRLAW_NODISCARD Result<double> Accuracy(std::span<const int> labels,
                        std::span<const int> predictions);

}  // namespace fairlaw::ml

#endif  // FAIRLAW_ML_MODEL_EVAL_H_
