#ifndef FAIRLAW_CORE_FAIRLAW_H_
#define FAIRLAW_CORE_FAIRLAW_H_

// Umbrella header for the fairlaw library: fairness auditing, bias
// mitigation, and legal-doctrine mapping, reproducing "Fairness in AI:
// challenges in bridging the gap between algorithms and law"
// (Fairness in AI Workshop @ ICDE 2024). Include the per-module headers
// directly in performance-sensitive translation units.

#include "audit/auditor.h"          // IWYU pragma: export
#include "audit/manipulation.h"     // IWYU pragma: export
#include "audit/proxy.h"            // IWYU pragma: export
#include "audit/representation.h"   // IWYU pragma: export
#include "audit/sampling_adequacy.h"  // IWYU pragma: export
#include "audit/subgroup.h"         // IWYU pragma: export
#include "causal/counterfactual.h"  // IWYU pragma: export
#include "causal/graph_analysis.h"  // IWYU pragma: export
#include "causal/scm.h"             // IWYU pragma: export
#include "core/json.h"              // IWYU pragma: export
#include "core/suite.h"             // IWYU pragma: export
#include "core/version.h"           // IWYU pragma: export
#include "data/csv.h"               // IWYU pragma: export
#include "data/group_by.h"          // IWYU pragma: export
#include "data/impute.h"            // IWYU pragma: export
#include "data/table.h"             // IWYU pragma: export
#include "legal/burden_shifting.h"  // IWYU pragma: export
#include "legal/checklist.h"        // IWYU pragma: export
#include "legal/doctrine.h"         // IWYU pragma: export
#include "legal/four_fifths.h"      // IWYU pragma: export
#include "legal/jurisdiction.h"     // IWYU pragma: export
#include "legal/proportionality.h"  // IWYU pragma: export
#include "legal/report.h"           // IWYU pragma: export
#include "metrics/calibration_metric.h"       // IWYU pragma: export
#include "metrics/conditional_metrics.h"      // IWYU pragma: export
#include "metrics/counterfactual_fairness.h"  // IWYU pragma: export
#include "metrics/group_metrics.h"            // IWYU pragma: export
#include "metrics/impossibility.h"            // IWYU pragma: export
#include "metrics/individual_fairness.h"      // IWYU pragma: export
#include "metrics/inequality_indices.h"       // IWYU pragma: export
#include "metrics/ranking_metrics.h"          // IWYU pragma: export
#include "mitigation/di_remover.h"            // IWYU pragma: export
#include "mitigation/group_blind_repair.h"    // IWYU pragma: export
#include "mitigation/group_calibrator.h"      // IWYU pragma: export
#include "mitigation/randomized_eodds.h"      // IWYU pragma: export
#include "mitigation/quota.h"                 // IWYU pragma: export
#include "mitigation/regularized_lr.h"        // IWYU pragma: export
#include "mitigation/reweighing.h"            // IWYU pragma: export
#include "mitigation/sampling.h"              // IWYU pragma: export
#include "mitigation/threshold_optimizer.h"   // IWYU pragma: export
#include "ml/cross_validation.h"              // IWYU pragma: export
#include "ml/decision_tree.h"                 // IWYU pragma: export
#include "ml/feature_importance.h"            // IWYU pragma: export
#include "ml/isotonic.h"                      // IWYU pragma: export
#include "ml/knn.h"                           // IWYU pragma: export
#include "ml/logistic_regression.h"           // IWYU pragma: export
#include "ml/model_eval.h"                    // IWYU pragma: export
#include "ml/naive_bayes.h"                   // IWYU pragma: export
#include "ml/random_forest.h"                 // IWYU pragma: export
#include "ml/split.h"                         // IWYU pragma: export
#include "ml/standardizer.h"                  // IWYU pragma: export
#include "simulation/adversary.h"             // IWYU pragma: export
#include "simulation/feedback_loop.h"         // IWYU pragma: export
#include "simulation/scenarios.h"             // IWYU pragma: export
#include "stats/bootstrap.h"                  // IWYU pragma: export
#include "stats/calibration.h"                // IWYU pragma: export
#include "stats/distance.h"                   // IWYU pragma: export
#include "stats/hypothesis.h"                 // IWYU pragma: export
#include "stats/mmd.h"                        // IWYU pragma: export
#include "stats/ot.h"                         // IWYU pragma: export
#include "stats/sample_complexity.h"          // IWYU pragma: export

#endif  // FAIRLAW_CORE_FAIRLAW_H_
