#include "serve/window.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "stats/mergeable.h"
#include "stats/kll.h"

namespace fairlaw::serve {

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
  std::vector<const audit::WindowedPartial*> buckets;
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
  if (watermark_ < 0) return merged;

  // Ascending absolute order: the fixed fold order every mergeable
  // accumulator's determinism contract requires.
  const std::vector<const audit::WindowedPartial*> buckets = LiveBuckets();
  // Looked up once, on first use (registry pointers live for the
  // process); a static, not a member, because Window() is const.
  static obs::Counter* const merges = obs::GetCounter("serve.window_merges");
  merges->Increment(buckets.size());

  // Counts and strata: cheap integer folds, merged serially.
  for (const audit::WindowedPartial* bucket : buckets) {
    merged.counts.MergeFrom(bucket->counts);
    merged.strata_counts.MergeFrom(bucket->strata_counts);
    merged.num_rows += bucket->num_rows;
  }

  if (!with_scores_) return merged;

  // Sketches: fix the canonical key order serially (first-seen across
  // buckets in ascending order — exactly what a serial MergeFrom chain
  // would produce), then fold each group's chain independently. Each
  // worker writes only its own slot, and a chain's merge order is the
  // same ascending bucket order regardless of scheduling, so the
  // merged sketches are identical for every thread count.
  for (const audit::WindowedPartial* bucket : buckets) {
    for (const std::string& key : bucket->sketches.keys()) {
      merged.sketches.KeyIndex(key);
    }
  }
  const std::vector<std::string>& keys = merged.sketches.keys();
  auto fold_group = [&merged, &buckets](size_t key_index) {
    stats::KllSketch* target = merged.sketches.mutable_slot(key_index);
    const std::string& key = merged.sketches.keys()[key_index];
    for (const audit::WindowedPartial* bucket : buckets) {
      const size_t slot = bucket->sketches.FindKey(key);
      if (slot < bucket->sketches.num_keys()) {
        target->Merge(bucket->sketches.sketch(slot));
      }
    }
  };
  if (pool == nullptr || keys.size() <= 1) {
    for (size_t i = 0; i < keys.size(); ++i) fold_group(i);
  } else {
    pool->ParallelFor(keys.size(), fold_group);
  }
  return merged;
}

}  // namespace fairlaw::serve
