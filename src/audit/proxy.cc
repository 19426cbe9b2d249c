#include "audit/proxy.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "base/thread_pool.h"
#include "data/column.h"
#include "data/csv.h"
#include "obs/obs.h"
#include "stats/descriptive.h"
#include "stats/hypothesis.h"

namespace fairlaw::audit {
namespace {

/// A column read as discrete codes: categorical columns by their
/// ExtractKeys codes (distinct values in first-seen order; a string
/// column's dictionary codes are read in place), numeric columns by the
/// quantile bin (upper_bound over `cuts`) each value falls in.
struct Discretized {
  data::DataType type = data::DataType::kString;
  std::span<const uint32_t> strings;  // a string column's codes
  std::vector<uint32_t> bools;        // a bool column's ExtractKeys codes
  std::span<const double> doubles;    // a double column's values
  std::span<const int64_t> int64s;    // an int64 column's values
  std::vector<double> cuts;           // a numeric column's cut points
  size_t arity = 0;

  uint32_t Code(size_t row) const {
    switch (type) {
      case data::DataType::kString:
        return strings[row];
      case data::DataType::kBool:
        return bools[row];
      case data::DataType::kDouble:
        return Bin(doubles[row]);
      case data::DataType::kInt64:
        return Bin(static_cast<double>(int64s[row]));
    }
    return 0;
  }

  /// upper_bound's index, counted without branches: the cuts are
  /// ascending, so the ones !(value < cut) are a prefix.
  uint32_t Bin(double value) const {
    uint32_t code = 0;
    for (double cut : cuts) code += !(value < cut) ? 1u : 0u;
    return code;
  }
};

/// Discretizes column `name`. A numeric column's cut points come from
/// selecting its quantiles in `scratch`, which the caller may reuse
/// across columns; duplicate cuts collapse for low-cardinality columns.
Result<Discretized> DiscretizeColumn(const data::Table& table,
                                     const std::string& name, size_t bins,
                                     std::vector<double>* scratch) {
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* column, table.GetColumn(name));
  if (column->null_count() > 0) {
    return Status::Invalid("DetectProxies: column '" + name + "' has nulls");
  }
  Discretized out;
  out.type = column->type();
  switch (out.type) {
    case data::DataType::kString:
      out.strings = column->Codes();
      out.arity = column->dictionary().num_keys();
      return out;
    case data::DataType::kBool: {
      data::ColumnKeys keys = data::ExtractKeys(*column);
      out.bools = std::move(keys.codes);
      out.arity = keys.keys.size();
      return out;
    }
    case data::DataType::kDouble: {
      FAIRLAW_ASSIGN_OR_RETURN(out.doubles, column->Doubles());
      scratch->assign(out.doubles.begin(), out.doubles.end());
      break;
    }
    case data::DataType::kInt64: {
      FAIRLAW_ASSIGN_OR_RETURN(out.int64s, column->Int64s());
      scratch->resize(out.int64s.size());
      std::transform(out.int64s.begin(), out.int64s.end(), scratch->begin(),
                     [](int64_t v) { return static_cast<double>(v); });
      break;
    }
  }
  if (bins < 2) return Status::Invalid("DetectProxies: bins must be >= 2");
  std::vector<double> levels;
  for (size_t b = 1; b < bins; ++b) {
    levels.push_back(static_cast<double>(b) / static_cast<double>(bins));
  }
  FAIRLAW_ASSIGN_OR_RETURN(out.cuts,
                           stats::QuantilesInPlace(*scratch, levels));
  out.cuts.erase(std::unique(out.cuts.begin(), out.cuts.end()),
                 out.cuts.end());
  out.arity = out.cuts.size() + 1;
  return out;
}

/// One candidate's finding, with the error the serial per-candidate
/// loop reports first: a self-proxy, then the candidate's own column,
/// then the protected column's, then the association scores'. The
/// contingency table is tallied straight from the two columns.
Result<ProxyFinding> ScoreCandidate(
    const data::Table& table, const std::string& name,
    const std::string& protected_column,
    const Result<Discretized>& protected_attr,
    const ProxyDetectionOptions& options, std::vector<double>* scratch) {
  if (name == protected_column) {
    return Status::Invalid("DetectProxies: protected column listed among "
                           "candidates");
  }
  FAIRLAW_ASSIGN_OR_RETURN(
      Discretized feature,
      DiscretizeColumn(table, name, options.bins, scratch));
  FAIRLAW_RETURN_NOT_OK(protected_attr.status());
  std::vector<std::vector<int64_t>> contingency(
      feature.arity, std::vector<int64_t>(protected_attr->arity, 0));
  for (size_t row = 0; row < table.num_rows(); ++row) {
    ++contingency[feature.Code(row)][protected_attr->Code(row)];
  }
  ProxyFinding finding;
  finding.feature = name;
  FAIRLAW_ASSIGN_OR_RETURN(finding.cramers_v, stats::CramersV(contingency));
  FAIRLAW_ASSIGN_OR_RETURN(finding.mutual_information,
                           stats::MutualInformation(contingency));

  // Predictability probe: guess the protected value as the majority
  // class within each feature bin; gain over the global majority.
  int64_t total = 0;
  std::vector<int64_t> protected_totals(contingency[0].size(), 0);
  int64_t per_bin_correct = 0;
  for (const auto& row : contingency) {
    int64_t best_in_bin = 0;
    for (size_t p = 0; p < row.size(); ++p) {
      protected_totals[p] += row[p];
      total += row[p];
      best_in_bin = std::max(best_in_bin, row[p]);
    }
    per_bin_correct += best_in_bin;
  }
  int64_t majority =
      *std::max_element(protected_totals.begin(), protected_totals.end());
  finding.predictability_gain =
      total > 0 ? (static_cast<double>(per_bin_correct) -
                   static_cast<double>(majority)) /
                      static_cast<double>(total)
                : 0.0;
  finding.flagged = finding.cramers_v > options.flag_threshold;
  return finding;
}

}  // namespace

Result<std::vector<ProxyFinding>> DetectProxies(
    const data::Table& table, const std::string& protected_column,
    const std::vector<std::string>& candidate_columns,
    const ProxyDetectionOptions& options, size_t num_threads) {
  if (candidate_columns.empty()) {
    return Status::Invalid("DetectProxies: no candidate columns");
  }
  if (options.flag_threshold < 0.0 || options.flag_threshold > 1.0) {
    return Status::Invalid("DetectProxies: flag_threshold must lie in [0,1]");
  }

  // As for the pooled read and the score loop, a table of at most one
  // read chunk is scored serially: starting the workers would cost more
  // than they save.
  const std::unique_ptr<ThreadPool> pool = MorselPool(
      num_threads, table.num_rows() > data::kDefaultChunkRows
                       ? candidate_columns.size()
                       : 1);
  // One selection buffer per worker, reused across its candidates. They
  // are reserved here: the calling thread's heap reuses memory the table
  // read has freed, where a worker's first allocation would grow a fresh
  // arena (about 1 MB more peak RSS at four threads).
  const size_t workers = pool == nullptr ? 1 : pool->num_threads();
  std::vector<std::vector<double>> buffers(workers);
  for (std::vector<double>& buffer : buffers) {
    buffer.reserve(table.num_rows());
  }
  const Result<Discretized> protected_attr = DiscretizeColumn(
      table, protected_column, options.bins, &buffers[0]);

  struct Scored {
    Status status;
    ProxyFinding finding;
  };
  std::vector<Scored> scored(candidate_columns.size());
  const std::string parent_path = obs::CurrentPath();
  auto score_strand = [&](size_t worker) {
    for (size_t c = worker; c < scored.size(); c += workers) {
      obs::TraceSpan span("candidate", parent_path);
      Result<ProxyFinding> finding =
          ScoreCandidate(table, candidate_columns[c], protected_column,
                         protected_attr, options, &buffers[worker]);
      scored[c].status = finding.status();
      if (finding.ok()) scored[c].finding = std::move(finding).ValueOrDie();
    }
  };
  if (pool == nullptr) {
    score_strand(0);
  } else {
    pool->ParallelFor(workers, score_strand);
  }

  std::vector<ProxyFinding> findings;
  findings.reserve(scored.size());
  for (Scored& candidate : scored) {
    FAIRLAW_RETURN_NOT_OK(candidate.status);
    findings.push_back(std::move(candidate.finding));
  }
  std::sort(findings.begin(), findings.end(),
            [](const ProxyFinding& a, const ProxyFinding& b) {
              return a.cramers_v > b.cramers_v;
            });
  return findings;
}

}  // namespace fairlaw::audit
