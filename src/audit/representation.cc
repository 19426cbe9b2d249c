#include "audit/representation.h"

#include <algorithm>
#include <cmath>

#include "base/string_util.h"
#include "stats/distance.h"
#include "stats/hypothesis.h"

namespace fairlaw::audit {

Result<RepresentationReport> AuditRepresentation(
    const std::vector<metrics::GroupStats>& groups,
    const std::map<std::string, double>& reference_shares,
    const RepresentationAuditOptions& options) {
  if (reference_shares.size() < 2) {
    return Status::Invalid("AuditRepresentation: need >= 2 reference "
                           "groups");
  }
  if (options.under_representation_threshold <= 0.0 ||
      options.under_representation_threshold > 1.0) {
    return Status::Invalid("AuditRepresentation: threshold must lie in "
                           "(0,1]");
  }
  double reference_total = 0.0;
  for (const auto& [group, share] : reference_shares) {
    (void)group;
    if (!std::isfinite(share)) {
      return Status::Invalid("AuditRepresentation: non-finite reference "
                             "share");
    }
    if (share < 0.0) {
      return Status::Invalid("AuditRepresentation: negative reference "
                             "share");
    }
    reference_total += share;
  }
  if (reference_total <= 0.0) {
    return Status::Invalid("AuditRepresentation: reference shares sum to "
                           "zero");
  }

  std::map<std::string, int64_t> counts;
  int64_t total = 0;
  for (const metrics::GroupStats& group : groups) {
    counts[group.group] += group.count;
    total += group.count;
  }
  if (total == 0) return Status::Invalid("AuditRepresentation: empty table");

  // Both directions must agree on the category set.
  for (const auto& [group, count] : counts) {
    (void)count;
    if (!reference_shares.contains(group)) {
      return Status::Invalid("AuditRepresentation: data contains group '" +
                             group + "' absent from the reference");
    }
  }
  for (const auto& [group, share] : reference_shares) {
    (void)share;
    if (!counts.contains(group)) {
      return Status::Invalid("AuditRepresentation: reference group '" +
                             group + "' absent from the data");
    }
  }

  RepresentationReport report;
  std::vector<double> data_probs;
  std::vector<double> reference_probs;
  std::vector<std::vector<int64_t>> gof_table;  // observed vs expected-ish
  std::string flagged;
  for (const auto& [group, share] : reference_shares) {
    GroupRepresentation rep;
    rep.group = group;
    rep.count = counts[group];
    rep.data_share =
        static_cast<double>(rep.count) / static_cast<double>(total);
    rep.reference_share = share / reference_total;
    rep.representation_ratio =
        rep.reference_share > 0.0 ? rep.data_share / rep.reference_share
                                  : 1.0;
    rep.under_represented =
        rep.representation_ratio < options.under_representation_threshold;
    if (rep.under_represented) {
      if (!flagged.empty()) flagged += ", ";
      flagged += group;
    }
    data_probs.push_back(rep.data_share);
    reference_probs.push_back(rep.reference_share);
    report.groups.push_back(std::move(rep));
  }

  FAIRLAW_ASSIGN_OR_RETURN(report.total_variation,
                           stats::TotalVariation(data_probs,
                                                 reference_probs));
  FAIRLAW_ASSIGN_OR_RETURN(report.hellinger,
                           stats::Hellinger(data_probs, reference_probs));

  // Chi-square goodness of fit against the reference composition.
  double chi2 = 0.0;
  for (const GroupRepresentation& rep : report.groups) {
    double expected = rep.reference_share * static_cast<double>(total);
    if (expected > 0.0) {
      double diff = static_cast<double>(rep.count) - expected;
      chi2 += diff * diff / expected;
    }
  }
  double df = static_cast<double>(report.groups.size() - 1);
  report.chi_square_p_value = stats::RegularizedGammaQ(df / 2.0, chi2 / 2.0);

  report.composition_ok =
      flagged.empty() && report.total_variation <= options.max_total_variation;
  if (!report.composition_ok) {
    report.detail = "TV=" + FormatDouble(report.total_variation, 4);
    if (!flagged.empty()) {
      report.detail += "; under-represented: " + flagged;
    }
  }
  return report;
}

}  // namespace fairlaw::audit
