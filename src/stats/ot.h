#ifndef FAIRLAW_STATS_OT_H_
#define FAIRLAW_STATS_OT_H_

#include <span>
#include <vector>

#include "base/result.h"

namespace fairlaw::stats {

/// A transport plan between two discrete distributions: plan[i][j] is the
/// mass moved from source atom i to target atom j.
struct TransportPlan {
  std::vector<std::vector<double>> plan;
  double cost = 0.0;  // total transport cost under the supplied cost matrix
};

/// Exact discrete optimal transport between source masses `p` and target
/// masses `q` under `cost` (cost[i][j] >= 0), solved by successive
/// shortest augmenting paths on the bipartite residual graph.
///
/// `p` and `q` must each sum to the same positive total (tolerance 1e-9;
/// they are normalized internally). Intended for small/medium supports
/// (up to a few hundred atoms), which covers the discrete protected-
/// attribute and quantile-bin use cases in fairness repair.
FAIRLAW_NODISCARD Result<TransportPlan> ExactTransport(
    std::span<const double> p, std::span<const double> q,
    const std::vector<std::vector<double>>& cost);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_OT_H_
