#ifndef FAIRLAW_STATS_KLL_H_
#define FAIRLAW_STATS_KLL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/result.h"

namespace fairlaw::stats {

/// Deterministic double-valued KLL quantile sketch (Karnin–Lang–Liberty).
///
/// The sketch keeps a ladder of levels; an item retained at level h
/// stands for 2^h input items. Level capacities decay geometrically
/// (ratio 2/3) from `k` at the top, so total retained items stay O(k)
/// and the rank error of any quantile query is O(1/k) with high
/// probability — independent of how many items streamed through.
///
/// Determinism contract (the serve daemon's byte-identity guarantee
/// rides on this): every compaction coin flip is drawn from the
/// counter-based stream SplitMix64(seed ^ compaction_index), never from
/// global entropy, so the full sketch state is a pure function of the
/// operation sequence (the interleaving of Add and Merge calls and
/// their arguments). Two sketches fed the same items in the same order
/// are equal member-for-member; batch boundaries cannot matter because
/// Add is per-item. Window queries merge per-bucket sketches in fixed
/// ascending bucket order, which pins the one remaining degree of
/// freedom (Merge is deliberately order-sensitive, like every other
/// chunk-order merge in the engine — see stats/mergeable.h).
class KllSketch {
 public:
  struct Options {
    /// Accuracy parameter: the top-level capacity. Retained items total
    /// ~3k; rank error is O(1/k). 200 gives ~1% rank error.
    uint32_t k = 200;
    /// Seed of the compaction coin stream.
    uint64_t seed = 0x9e3779b97f4a7c15ULL;
  };

  /// Default options. (A defaulted `options` argument would need
  /// Options complete inside its own enclosing class — ill-formed — so
  /// the zero-argument form is its own constructor.)
  KllSketch();
  explicit KllSketch(const Options& options);

  /// Inserts one finite value into its sorted place in level 0 (-0.0 is
  /// stored as +0.0). Non-finite values are the caller's problem; the
  /// serve ingest path rejects them before they get here.
  void Add(double value);

  /// Folds `other` into this sketch: per level, other's retained items
  /// merge into ours (a linear merge of two sorted runs), then over-full
  /// levels compact bottom-up. The result represents the union of both
  /// inputs. Deterministic given the two states, but not commutative —
  /// the compaction coins depend on the order — so callers merge in a
  /// fixed order (the window ring merges ascending bucket order).
  void Merge(const KllSketch& other);

  /// Total weight (number of items ever inserted, including through
  /// merges).
  uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Number of retained (value, weight) items across all levels.
  size_t num_retained() const;

  /// Value at quantile `q` in [0,1]: the smallest retained value whose
  /// estimated rank reaches q*count(). Invalid on an empty sketch or
  /// q outside [0,1].
  FAIRLAW_NODISCARD Result<double> Quantile(double q) const;

  /// Estimated fraction of inserted items <= x. Invalid on an empty
  /// sketch.
  FAIRLAW_NODISCARD Result<double> Cdf(double x) const;

  /// Retained items as a weight-sorted support: (value, weight) pairs
  /// in ascending value order, ties by ascending weight (a merge of the
  /// sorted levels; no sort). The empirical CDF over these points is
  /// the sketch's distribution estimate; the sketch distance kernels
  /// below sweep it directly.
  struct WeightedItem {
    double value = 0.0;
    uint64_t weight = 0;
    friend bool operator==(const WeightedItem&, const WeightedItem&) =
        default;
  };
  std::vector<WeightedItem> SortedItems() const;

  /// Member-for-member equality — the byte-identity oracle the batch-
  /// permutation and thread-determinism tests compare with.
  friend bool operator==(const KllSketch& a, const KllSketch& b) {
    return a.k_ == b.k_ && a.seed_ == b.seed_ && a.n_ == b.n_ &&
           a.compactions_ == b.compactions_ && a.levels_ == b.levels_;
  }

 private:
  size_t TotalRetained() const;
  /// When the retained items exceed the capacity ladder's total,
  /// compacts the lowest over-full (or, failing that, lowest
  /// compactable) level once and returns true; returns false when the
  /// sketch is within capacity or nothing can compact.
  bool CompactOnce();
  /// Counter-based coin: SplitMix64(seed ^ compaction index) & 1.
  bool NextCoin();

  uint32_t k_;
  uint64_t seed_;
  uint64_t n_ = 0;
  uint64_t compactions_ = 0;
  /// levels_[h] holds items of weight 2^h, always sorted ascending. A
  /// level's contents are then a function of its multiset alone, which
  /// is what the compaction decisions (sizes and coins) and every
  /// observable (SortedItems, Quantile, Cdf) depend on; Add, Merge and
  /// compaction keep the order with linear merges, never a sort.
  std::vector<std::vector<double>> levels_;
};

/// Kolmogorov–Smirnov statistic between the distribution estimates of
/// two sketches: max |F_p - F_q| over the union of their retained
/// supports. Error is bounded by the sum of the sketches' rank errors
/// (O(1/k) each). Invalid when either sketch is empty.
FAIRLAW_NODISCARD Result<double> KolmogorovSmirnovSketch(const KllSketch& p,
                                                         const KllSketch& q);

/// Wasserstein-1 distance between the sketch distribution estimates:
/// the integral of |F_p - F_q| over the union support, evaluated
/// exactly on the two step functions. Error is O(range/k). Invalid
/// when either sketch is empty.
FAIRLAW_NODISCARD Result<double> Wasserstein1Sketch(const KllSketch& p,
                                                    const KllSketch& q);

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_KLL_H_
