#include "serve/window.h"

#include <algorithm>
#include <string>
#include <utility>

#include "audit/auditor.h"
#include "audit/source.h"
#include "obs/obs.h"
#include "stats/mergeable.h"
#include "stats/kll.h"

namespace fairlaw::serve {
namespace {

using Buckets = std::vector<const audit::WindowedPartial*>;

/// Adds `buckets` to serve.window_merges, the bucket folds run: one per
/// live bucket per pass (Window(), a snapshot's tally fold, one group's
/// chain fold). Looked up on the first fold over a non-empty window, so
/// the stats export lists it only from then on; registry pointers live
/// for the process.
void CountBucketFolds(size_t buckets) {
  if (buckets == 0) return;
  static obs::Counter* const merges = obs::GetCounter("serve.window_merges");
  merges->Increment(buckets);
}

/// The tally fold: counts, strata and num_rows, cheap integer folds in
/// ascending bucket order — the fixed fold order every mergeable
/// accumulator's determinism contract requires.
void FoldTallies(const Buckets& buckets, audit::WindowedPartial* into) {
  for (const audit::WindowedPartial* bucket : buckets) {
    into->counts.MergeFrom(bucket->counts);
    into->strata_counts.MergeFrom(bucket->strata_counts);
    into->num_rows += bucket->num_rows;
  }
}

/// The canonical sketch key order: first-seen across buckets in
/// ascending order, exactly what a serial MergeFrom chain would
/// produce. Every slot starts as the empty prototype.
void FoldSketchKeys(const Buckets& buckets, stats::GroupedSketches* into) {
  for (const audit::WindowedPartial* bucket : buckets) {
    for (const std::string& key : bucket->sketches.keys()) {
      into->KeyIndex(key);
    }
  }
}

/// The per-group chain fold: the buckets' sketches for key `key_index`,
/// merged in ascending bucket order into its (empty) slot.
void FoldChain(const Buckets& buckets, size_t key_index,
               stats::GroupedSketches* into) {
  stats::KllSketch* target = into->mutable_slot(key_index);
  const std::string& key = into->keys()[key_index];
  for (const audit::WindowedPartial* bucket : buckets) {
    const size_t slot = bucket->sketches.FindKey(key);
    if (slot < bucket->sketches.num_keys()) {
      target->Merge(bucket->sketches.sketch(slot));
    }
  }
}

/// Folds the chains `key_indices` names, over `pool` when given and
/// there is more than one. Each worker writes only its own slot, and a
/// chain's merge order is the same whatever the schedule, so the
/// sketches are identical for every thread count.
void FoldChains(const Buckets& buckets, const std::vector<size_t>& key_indices,
                ThreadPool* pool, stats::GroupedSketches* into) {
  auto fold = [&](size_t i) { FoldChain(buckets, key_indices[i], into); };
  if (pool == nullptr || key_indices.size() <= 1) {
    for (size_t i = 0; i < key_indices.size(); ++i) fold(i);
  } else {
    pool->ParallelFor(key_indices.size(), fold);
  }
}

}  // namespace

WindowRing::WindowRing(const ServeConfig& config)
    : bucket_width_(config.bucket_width),
      num_buckets_(static_cast<int64_t>(config.num_buckets)),
      with_scores_(config.with_scores) {
  sketch_options_.k = config.sketch_k;
  slots_.reserve(config.num_buckets);
  for (size_t i = 0; i < config.num_buckets; ++i) {
    Slot slot;
    slot.partial = audit::WindowedPartial(sketch_options_);
    slots_.push_back(std::move(slot));
  }
}

void WindowRing::Advance(int64_t bucket) {
  // Reset only the slots the new buckets claim: at most num_buckets_
  // of them, however far the watermark jumps. Counted, so no index
  // steps past `bucket`, which may be INT64_MAX.
  const int64_t first = std::max(watermark_ + 1, bucket - num_buckets_ + 1);
  const int64_t claimed = bucket - first + 1;
  for (int64_t k = 0; k < claimed; ++k) {
    const int64_t index = first + k;
    Slot& slot = slots_[static_cast<size_t>(index % num_buckets_)];
    slot.bucket_index = index;
    slot.partial = audit::WindowedPartial(sketch_options_);
  }
  watermark_ = bucket;
}

Status WindowRing::Ingest(const Event& event) {
  const int64_t bucket = event.t / bucket_width_;
  if (bucket > watermark_) Advance(bucket);
  if (bucket <= watermark_ - num_buckets_) {
    return Status::OutOfRange(
        "event bucket " + std::to_string(bucket) +
        " is older than the window (watermark " +
        std::to_string(watermark_) + ", " + std::to_string(num_buckets_) +
        " buckets)");
  }
  Slot& slot = slots_[static_cast<size_t>(bucket % num_buckets_)];
  audit::WindowedPartial& partial = slot.partial;

  partial.counts[event.group] += stats::GroupCounts::Row(
      event.pred, event.has_label ? event.label : 0);
  if (event.has_stratum) {
    partial.strata_counts[event.stratum][event.group] +=
        stats::GroupCounts::Row(event.pred);
  }
  if (event.has_score) partial.sketches[event.group].Add(event.score);
  partial.num_rows += 1;
  ++version_;
  return Status::OK();
}

uint64_t WindowRing::num_events() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.bucket_index >= 0) total += slot.partial.num_rows;
  }
  return total;
}

int64_t WindowRing::window_start() const {
  return std::max<int64_t>(0, watermark_ - num_buckets_ + 1);
}

std::vector<const audit::WindowedPartial*> WindowRing::LiveBuckets() const {
  Buckets buckets;
  if (watermark_ < 0) return buckets;
  buckets.reserve(static_cast<size_t>(num_buckets_));
  // Counted like Advance: the watermark may be INT64_MAX.
  const int64_t start = window_start();
  const int64_t live = watermark_ - start + 1;
  for (int64_t k = 0; k < live; ++k) {
    const int64_t index = start + k;
    const Slot& slot = slots_[static_cast<size_t>(index % num_buckets_)];
    if (slot.bucket_index == index && slot.partial.num_rows > 0) {
      buckets.push_back(&slot.partial);
    }
  }
  return buckets;
}

audit::WindowedPartial WindowRing::Window(ThreadPool* pool) const {
  audit::WindowedPartial merged(sketch_options_);
  const Buckets buckets = LiveBuckets();
  CountBucketFolds(buckets.size());
  FoldTallies(buckets, &merged);
  if (!with_scores_) return merged;
  FoldSketchKeys(buckets, &merged.sketches);
  std::vector<size_t> chains(merged.sketches.num_keys());
  for (size_t i = 0; i < chains.size(); ++i) chains[i] = i;
  FoldChains(buckets, chains, pool, &merged.sketches);
  return merged;
}

WindowSnapshot::WindowSnapshot(const WindowRing& ring)
    : ring_(ring),
      version_(ring.version()),
      buckets_(ring.LiveBuckets()),
      window_(ring.sketch_options_) {}

void WindowSnapshot::Sync() {
  if (version_ == ring_.version()) return;
  version_ = ring_.version();
  buckets_ = ring_.LiveBuckets();
  tallies_folded_ = false;
  keys_folded_ = false;
  chain_folded_.clear();
  window_ = audit::WindowedPartial(ring_.sketch_options_);
  audit_.reset();
}

const audit::WindowedPartial& WindowSnapshot::Tallies() {
  Sync();
  if (!tallies_folded_) {
    CountBucketFolds(buckets_.size());
    FoldTallies(buckets_, &window_);
    tallies_folded_ = true;
  }
  return window_;
}

void WindowSnapshot::FoldKeys() {
  if (keys_folded_) return;
  if (ring_.with_scores_) FoldSketchKeys(buckets_, &window_.sketches);
  chain_folded_.assign(window_.sketches.num_keys(), 0);
  keys_folded_ = true;
}

const stats::KllSketch* WindowSnapshot::Sketch(std::string_view group) {
  Sync();
  FoldKeys();
  const size_t slot = window_.sketches.FindKey(group);
  if (slot >= window_.sketches.num_keys()) return nullptr;
  if (!chain_folded_[slot]) {
    CountBucketFolds(buckets_.size());
    FoldChain(buckets_, slot, &window_.sketches);
    chain_folded_[slot] = 1;
  }
  return &window_.sketches.sketch(slot);
}

const Result<audit::AuditResult>& WindowSnapshot::Audit(
    const audit::AuditConfig& config, ThreadPool* pool) {
  Tallies();  // syncs first
  if (!audit_.has_value()) {
    FoldKeys();
    std::vector<size_t> missing;
    for (size_t i = 0; i < chain_folded_.size(); ++i) {
      if (!chain_folded_[i]) missing.push_back(i);
    }
    CountBucketFolds(buckets_.size() * missing.size());
    FoldChains(buckets_, missing, pool, &window_.sketches);
    chain_folded_.assign(chain_folded_.size(), 1);
    audit_.emplace(
        audit::Auditor::Run(audit::AuditSource::FromWindow(window_), config));
  }
  return *audit_;
}

}  // namespace fairlaw::serve
