#ifndef FAIRLAW_STATS_MERGEABLE_H_
#define FAIRLAW_STATS_MERGEABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stats/kll.h"

namespace fairlaw::stats {

/// Chunk-mergeable accumulators for the morsel-driven audit engine.
///
/// The determinism contract (DESIGN.md §14): every morsel produces one of
/// these over its own rows, and the scheduler merges them in
/// sequence-numbered chunk order. Because the payloads are exact integer
/// tallies (or row-ordered series), a merge in chunk order reconstructs
/// exactly what a single sequential pass over the whole table would have
/// produced — which is what makes audit output byte-identical for any
/// thread count and any chunk size. Keys keep first-seen order under the
/// same rule: a key's position is where the first row holding it appears
/// in global row order.
///
/// Layering note: this lives in stats (below data/metrics) on purpose —
/// it is plain keyed arithmetic with no table dependencies, so
/// data, metrics, audit and serve all key their groups through it.

/// Exact integer tallies for one group: the four numbers every group
/// definition reads. Everything else a group metric needs (negatives, FP,
/// rates) derives from them after the merge.
struct GroupCounts {
  int64_t count = 0;
  int64_t positive_predictions = 0;
  int64_t actual_positives = 0;
  int64_t true_positives = 0;

  /// What one row adds: the row itself, its 0/1 prediction, its 0/1
  /// label, and whether both are 1. A row without a label passes 0, so
  /// its label tallies stay zero. The one row definition every tally
  /// uses: metric rows, chunk strata, serve buckets and their strata.
  static GroupCounts Row(int64_t prediction, int64_t label = 0) {
    return {1, prediction, label, prediction & label};
  }

  GroupCounts& operator+=(const GroupCounts& other) {
    count += other.count;
    positive_predictions += other.positive_predictions;
    actual_positives += other.actual_positives;
    true_positives += other.true_positives;
    return *this;
  }
  friend bool operator==(const GroupCounts& a, const GroupCounts& b) = default;
};

/// One key's rows in global row order: parallel (value, tag) vectors.
/// Order-sensitive floating point consumers (calibration's running sums,
/// score-distribution sorts) read these, so they must see exactly the
/// sequence a sequential pass would have fed them.
struct TaggedSeries {
  std::vector<double> values;
  std::vector<uint8_t> tags;

  void Append(double value, uint8_t tag) {
    values.push_back(value);
    tags.push_back(tag);
  }
  friend bool operator==(const TaggedSeries& a,
                         const TaggedSeries& b) = default;
};

template <typename T>
class FirstSeenMap;

/// The per-payload merge FirstSeenMap::MergeFrom applies to a shared key,
/// self-first: tallies add, series append, sketches merge, nested maps
/// recurse.
inline void MergeSlot(GroupCounts* into, const GroupCounts& from) {
  *into += from;
}
inline void MergeSlot(TaggedSeries* into, const TaggedSeries& from) {
  into->values.insert(into->values.end(), from.values.begin(),
                      from.values.end());
  into->tags.insert(into->tags.end(), from.tags.begin(), from.tags.end());
}
inline void MergeSlot(KllSketch* into, const KllSketch& from) {
  into->Merge(from);
}
template <typename T>
void MergeSlot(FirstSeenMap<T>* into, const FirstSeenMap<T>& from) {
  into->MergeFrom(from);
}

/// String key -> slot index in first-seen order, with one payload per
/// slot. The one dictionary behind every group, stratum and value index
/// (DESIGN.md §14 fact 2): first-seen dictionaries merged in chunk order
/// reproduce the global first-seen order, so the rule lives here once.
template <typename T>
class FirstSeenMap {
 public:
  /// `prototype` is the payload every new key starts from: a zero
  /// tally, an empty series, an empty sketch carrying its options.
  explicit FirstSeenMap(T prototype = T()) : prototype_(std::move(prototype)) {}

  /// Slot index for `key`, appending a copy of the prototype (at the end
  /// of the first-seen order) when absent. A hit allocates nothing.
  size_t KeyIndex(std::string_view key) {
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    const size_t slot = keys_.size();
    index_.emplace(std::string(key), slot);
    keys_.emplace_back(key);
    slots_.push_back(prototype_);
    return slot;
  }

  /// Read-only lookup: the slot index for `key`, or num_keys() when
  /// absent.
  size_t FindKey(std::string_view key) const {
    auto it = index_.find(key);
    return it == index_.end() ? keys_.size() : it->second;
  }

  /// The payload for `key`, inserted when absent (as std::map's []).
  T& operator[](std::string_view key) { return slots_[KeyIndex(key)]; }

  /// Folds `other` in: other's new keys append in other's first-seen
  /// order, and shared keys merge self-first through MergeSlot. Calling
  /// MergeFrom over chunk partials in ascending chunk order reproduces
  /// the whole-table pass.
  void MergeFrom(const FirstSeenMap& other) {
    for (size_t i = 0; i < other.keys_.size(); ++i) {
      MergeSlot(&slots_[KeyIndex(other.keys_[i])], other.slots_[i]);
    }
  }

  size_t num_keys() const { return keys_.size(); }
  const std::vector<std::string>& keys() const { return keys_; }
  const T& slot(size_t key_index) const { return slots_[key_index]; }
  /// Mutable slot access. Parallel window folds rely on it: the caller
  /// fixes the key order serially via KeyIndex, then workers each fill
  /// one distinct slot — indexed writes, never shared-state compound
  /// updates.
  T* mutable_slot(size_t key_index) { return &slots_[key_index]; }
  const T& prototype() const { return prototype_; }

  /// Same keys in the same order with equal payloads.
  friend bool operator==(const FirstSeenMap& a, const FirstSeenMap& b) {
    return a.keys_ == b.keys_ && a.slots_ == b.slots_;
  }

 private:
  T prototype_;
  std::vector<std::string> keys_;
  std::vector<T> slots_;
  // Lookup only, never iterated: keys_ holds the order.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>()(key);
    }
  };
  std::unordered_map<std::string, size_t, KeyHash, std::equal_to<>> index_;
};

/// Group key -> exact tallies.
using GroupCountsAccumulator = FirstSeenMap<GroupCounts>;

/// Stratum -> per-group tallies, both levels in first-seen order. Feeds
/// the conditional (stratified) metrics.
class StratifiedCountsAccumulator
    : public FirstSeenMap<GroupCountsAccumulator> {
 public:
  const GroupCountsAccumulator& stratum(size_t index) const {
    return slot(index);
  }
};

/// Group key -> row-ordered (value, tag) series.
using GroupedSeries = FirstSeenMap<TaggedSeries>;

/// Group key -> KLL quantile sketch: the bounded-memory counterpart of
/// GroupedSeries for the serve daemon's window buckets, where score
/// series cannot grow with history. The sketch's own coin stream is
/// counter-based, so state is a pure function of the operation sequence
/// and the merge contract holds as for the exact payloads.
class GroupedSketches : public FirstSeenMap<KllSketch> {
 public:
  explicit GroupedSketches(const KllSketch::Options& options = {})
      : FirstSeenMap(KllSketch(options)) {}

  const KllSketch& sketch(size_t key_index) const { return slot(key_index); }
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_MERGEABLE_H_
