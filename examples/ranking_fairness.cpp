// Fairness in rankings (the recommendation setting of Pitoura et al.,
// the survey the paper cites): audit group exposure in a score-ordered
// candidate list, then re-rank under a prefix quota and show the
// exposure recover. Finishes by exporting the before/after audits as
// JSON for a compliance archive.
#include <algorithm>
#include <cstdio>

#include "base/json_writer.h"
#include "metrics/ranking_metrics.h"
#include "stats/rng.h"

int main() {
  using fairlaw::stats::Rng;
  namespace metrics = fairlaw::metrics;

  // Candidate pool: group b's scores are depressed by historical bias,
  // so a pure score ranking stacks them at the bottom.
  Rng rng(17);
  const size_t n = 60;
  std::vector<std::string> groups(n);
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) {
    bool b = rng.Bernoulli(0.5);
    groups[i] = b ? "b" : "a";
    scores[i] = rng.Normal(b ? -1.0 : 0.5, 0.8);
  }
  std::vector<size_t> score_order(n);
  for (size_t i = 0; i < n; ++i) score_order[i] = i;
  std::sort(score_order.begin(), score_order.end(),
            [&scores](size_t x, size_t y) { return scores[x] > scores[y]; });

  auto ranked_groups = [&groups](const std::vector<size_t>& order) {
    std::vector<std::string> out;
    out.reserve(order.size());
    for (size_t index : order) out.push_back(groups[index]);
    return out;
  };

  std::printf("--- pure score ranking ---\n");
  metrics::RankingFairnessReport before =
      metrics::ExposureFairness(ranked_groups(score_order)).ValueOrDie();
  for (const auto& exposure : before.groups) {
    std::printf("  group %s: share=%.3f exposure_share=%.3f ratio=%.3f\n",
                exposure.group.c_str(), exposure.population_share,
                exposure.exposure_share, exposure.exposure_ratio);
  }
  std::printf("  verdict: %s  %s\n", before.satisfied ? "fair" : "UNFAIR",
              before.detail.c_str());
  metrics::PrefixParityReport prefix_before =
      metrics::TopKParity(ranked_groups(score_order), {5, 10, 20})
          .ValueOrDie();
  std::printf("  worst prefix gap %.3f at top-%zu (group %s)\n\n",
              prefix_before.max_gap, prefix_before.worst_prefix,
              prefix_before.worst_group.c_str());

  std::printf("--- fair re-rank with a 40%% prefix quota for group b ---\n");
  std::vector<size_t> fair_order =
      metrics::FairRerank(groups, scores, {{"b", 0.4}}).ValueOrDie();
  metrics::RankingFairnessReport after =
      metrics::ExposureFairness(ranked_groups(fair_order)).ValueOrDie();
  for (const auto& exposure : after.groups) {
    std::printf("  group %s: exposure ratio %.3f\n", exposure.group.c_str(),
                exposure.exposure_ratio);
  }
  std::printf("  verdict: %s\n\n", after.satisfied ? "fair" : "UNFAIR");

  // Compliance archive: both audits as JSON.
  fairlaw::JsonWriter json;
  json.BeginObject();
  json.Field("before_min_exposure_ratio", before.min_exposure_ratio);
  json.Field("after_min_exposure_ratio", after.min_exposure_ratio);
  json.Field("quota_group", std::string("b"));
  json.Field("quota_share", 0.4);
  json.EndObject();
  std::printf("archive: %s\n", json.Finish().ValueOrDie().c_str());
  return 0;
}
