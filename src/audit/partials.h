#ifndef FAIRLAW_AUDIT_PARTIALS_H_
#define FAIRLAW_AUDIT_PARTIALS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "base/result.h"
#include "data/column.h"
#include "data/table.h"
#include "stats/mergeable.h"

namespace fairlaw::audit {

/// Column extraction shared by the chunk tally and the MetricInput
/// entry points: a 0/1 integer column, and a key column as codes into
/// its first-seen keys (data::ExtractKeys). Audits reject a key column
/// with nulls.
FAIRLAW_NODISCARD Result<std::vector<int>> BinaryColumn(
    const data::Table& table, const std::string& name);
FAIRLAW_NODISCARD Result<data::ColumnKeys> GroupKeys(
    const data::Table& table, const std::string& name);

/// Codes for the row pairs (a[row], b[row]), where every b code is below
/// `b_arity`: equal pairs share a code, and codes follow the pairs'
/// first-seen row order. first_rows[code] is the row where that pair
/// first shows. Pairing one key column in at a time codes the tuples of
/// several columns; the strata and the subgroup audit's cells both do.
struct PairCodes {
  std::vector<uint32_t> codes;
  std::vector<size_t> first_rows;
};
PairCodes CodePairs(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    size_t b_arity);

/// The strata of `strata_columns`: one code per distinct tuple of their
/// keys in first-seen row order, each keyed by its keys joined with "|".
/// Memory is O(rows + strata), never the product of the columns'
/// dictionary sizes.
FAIRLAW_NODISCARD Result<data::ColumnKeys> StrataKeys(
    const data::Table& table, const std::vector<std::string>& strata_columns);

/// The extraction steps in the order the serial whole-table pass runs
/// them (DESIGN.md §14). The serial pass scans whole columns in this
/// order, so a step's failure anywhere outranks any later step's.
enum AuditStep : size_t {
  kProtectedStep,
  kPredictionStep,
  kLabelStep,
  kScoreStep,
  kStrataStep,
  kNumAuditSteps
};

/// One status per extraction step, indexed by AuditStep.
using StepStatuses = std::array<Status, kNumAuditSteps>;

/// The first failing step's status, or OK.
FAIRLAW_NODISCARD Status FirstError(const StepStatuses& statuses);

/// Everything one morsel contributes to the audit: exact integer tallies
/// for the count metrics, row-ordered series for the order-sensitive
/// score paths, and one status per extraction step so the error that
/// wins after the merge is the one the serial whole-table pass would
/// have reported.
struct ChunkPartial {
  StepStatuses status;
  stats::GroupCountsAccumulator counts;
  stats::StratifiedCountsAccumulator strata_counts;
  stats::GroupedSeries score_series;
};

/// Extracts and tallies one chunk. Pure function of (chunk, config), so
/// it runs on pool workers without touching shared mutable state.
ChunkPartial ProcessChunk(const data::Table& chunk, const AuditConfig& config,
                          const std::string& parent_path);

/// Chunk partials folded in chunk order. Step statuses rank extraction
/// steps in AuditStep order; within a step the earliest chunk wins (all
/// of a step's failure messages are identical anyway — none embeds a row
/// number).
class MergedPartials {
 public:
  void Fold(ChunkPartial&& partial);

  FAIRLAW_NODISCARD Status FirstError() const {
    return audit::FirstError(status_);
  }

  const stats::GroupCountsAccumulator& counts() const { return counts_; }
  const stats::StratifiedCountsAccumulator& strata_counts() const {
    return strata_counts_;
  }
  const stats::GroupedSeries& score_series() const { return score_series_; }

 private:
  StepStatuses status_;
  stats::GroupCountsAccumulator counts_;
  stats::StratifiedCountsAccumulator strata_counts_;
  stats::GroupedSeries score_series_;
};

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_PARTIALS_H_
