#include "stats/ot.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fairlaw::stats {
namespace {

constexpr double kMassEpsilon = 1e-12;

Status ValidateInputs(std::span<const double> p, std::span<const double> q,
                      const std::vector<std::vector<double>>& cost) {
  if (p.empty() || q.empty()) {
    return Status::Invalid("optimal transport: empty distribution");
  }
  if (cost.size() != p.size()) {
    return Status::Invalid("optimal transport: cost matrix row count != |p|");
  }
  for (const auto& row : cost) {
    if (row.size() != q.size()) {
      return Status::Invalid(
          "optimal transport: cost matrix column count != |q|");
    }
    for (double c : row) {
      if (c < 0.0 || !std::isfinite(c)) {
        return Status::Invalid("optimal transport: costs must be finite and "
                               "non-negative");
      }
    }
  }
  double sum_p = 0.0;
  double sum_q = 0.0;
  for (double v : p) {
    if (v < 0.0) return Status::Invalid("optimal transport: negative mass");
    sum_p += v;
  }
  for (double v : q) {
    if (v < 0.0) return Status::Invalid("optimal transport: negative mass");
    sum_q += v;
  }
  if (sum_p <= 0.0 || sum_q <= 0.0) {
    return Status::Invalid("optimal transport: zero total mass");
  }
  if (std::fabs(sum_p - sum_q) > 1e-6 * std::max(sum_p, sum_q)) {
    return Status::Invalid("optimal transport: masses must balance");
  }
  return Status::OK();
}

}  // namespace

Result<TransportPlan> ExactTransport(
    std::span<const double> p, std::span<const double> q,
    const std::vector<std::vector<double>>& cost) {
  FAIRLAW_RETURN_NOT_OK(ValidateInputs(p, q, cost));
  const size_t n = p.size();
  const size_t m = q.size();

  // Normalize so both sides sum to exactly 1.
  double sum_p = 0.0;
  for (double v : p) sum_p += v;
  double sum_q = 0.0;
  for (double v : q) sum_q += v;
  std::vector<double> supply(p.begin(), p.end());
  std::vector<double> demand(q.begin(), q.end());
  for (double& v : supply) v /= sum_p;
  for (double& v : demand) v /= sum_q;

  TransportPlan result;
  result.plan.assign(n, std::vector<double>(m, 0.0));

  // Successive shortest augmenting paths on the bipartite residual graph
  // with Johnson potentials: Dijkstra over reduced costs
  // c'(u,v) = c(u,v) + phi(u) - phi(v), which stay non-negative when every
  // augmentation follows a shortest path. Nodes: sources 0..n-1, targets
  // n..n+m-1.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> potential(n + m, 0.0);
  while (true) {
    // Multi-source Dijkstra from every source with remaining supply.
    std::vector<double> dist(n + m, kInf);
    std::vector<int> parent(n + m, -1);
    std::vector<uint8_t> done(n + m, 0);
    for (size_t i = 0; i < n; ++i) {
      if (supply[i] > kMassEpsilon) dist[i] = 0.0;
    }
    for (size_t iter = 0; iter < n + m; ++iter) {
      int u = -1;
      double best = kInf;
      for (size_t v = 0; v < n + m; ++v) {
        if (!done[v] && dist[v] < best) {
          best = dist[v];
          u = static_cast<int>(v);
        }
      }
      if (u < 0) break;
      done[u] = true;
      if (u < static_cast<int>(n)) {
        // Forward edges source u -> every target j.
        for (size_t j = 0; j < m; ++j) {
          double reduced = cost[u][j] + potential[u] - potential[n + j];
          if (reduced < 0.0) reduced = 0.0;  // clamp rounding residue
          double nd = dist[u] + reduced;
          if (nd < dist[n + j]) {
            dist[n + j] = nd;
            parent[n + j] = u;
          }
        }
      } else {
        // Residual edges target (u-n) -> source i where plan[i][u-n] > 0.
        size_t j = static_cast<size_t>(u) - n;
        for (size_t i = 0; i < n; ++i) {
          if (result.plan[i][j] <= kMassEpsilon) continue;
          double reduced = -cost[i][j] + potential[u] - potential[i];
          if (reduced < 0.0) reduced = 0.0;
          double nd = dist[u] + reduced;
          if (nd < dist[i]) {
            dist[i] = nd;
            parent[i] = u;
          }
        }
      }
    }

    // Pick the reachable target with remaining demand at minimum distance.
    int best_target = -1;
    double best_dist = kInf;
    for (size_t j = 0; j < m; ++j) {
      if (demand[j] > kMassEpsilon && dist[n + j] < best_dist) {
        best_dist = dist[n + j];
        best_target = static_cast<int>(j);
      }
    }
    if (best_target < 0) break;  // all demand satisfied (or unreachable)

    // Trace the path back and find the bottleneck mass. Parent pointers
    // form a tree under Dijkstra, so the walk terminates.
    double bottleneck = demand[best_target];
    int node = static_cast<int>(n) + best_target;
    while (parent[node] >= 0) {
      int prev = parent[node];
      if (node < static_cast<int>(n)) {
        // Residual edge prev(target) -> node(source): bounded by flow.
        bottleneck = std::min(bottleneck,
                              result.plan[node][prev - static_cast<int>(n)]);
      }
      node = prev;
    }
    bottleneck = std::min(bottleneck, supply[node]);
    if (bottleneck <= kMassEpsilon) break;  // numerically exhausted

    // Apply the augmentation.
    node = static_cast<int>(n) + best_target;
    while (parent[node] >= 0) {
      int prev = parent[node];
      if (node >= static_cast<int>(n)) {
        result.plan[prev][node - static_cast<int>(n)] += bottleneck;
      } else {
        result.plan[node][prev - static_cast<int>(n)] -= bottleneck;
      }
      node = prev;
    }
    supply[node] -= bottleneck;
    demand[best_target] -= bottleneck;

    // Update potentials so future reduced costs stay non-negative.
    for (size_t v = 0; v < n + m; ++v) {
      if (dist[v] < kInf) potential[v] += dist[v];
    }
  }

  result.cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      result.cost += result.plan[i][j] * cost[i][j];
    }
  }
  return result;
}

}  // namespace fairlaw::stats
