#ifndef FAIRLAW_SERVE_WINDOW_H_
#define FAIRLAW_SERVE_WINDOW_H_

#include <cstdint>
#include <vector>

#include "audit/windowed.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "stats/kll.h"
#include "serve/api.h"

namespace fairlaw::serve {

/// Ring of time buckets holding the sliding window's mergeable state.
///
/// Bucketing is pure event time: bucket(e) = e.t / bucket_width; the
/// watermark is the highest bucket ever seen, and the window is the
/// `num_buckets` buckets ending at the watermark. Advancing the
/// watermark resets the ring slots the new buckets claim; events older
/// than the window are rejected (counted, never silently dropped into
/// a live bucket). No wall clock is involved anywhere, so the full
/// ring state — and every response derived from it — is a pure
/// function of the event sequence.
class WindowRing {
 public:
  explicit WindowRing(const ServeConfig& config);

  /// Folds one validated event into its bucket. OutOfRange when the
  /// event's bucket has already slid out of the window.
  FAIRLAW_NODISCARD Status Ingest(const Event& event);

  /// Highest bucket index seen; -1 before any event.
  int64_t watermark() const { return watermark_; }
  /// Events currently held across live buckets.
  uint64_t num_events() const;
  /// First bucket the window covers (max(0, watermark - num_buckets + 1)).
  int64_t window_start() const;

  /// Merges the live buckets, in ascending bucket order, into one
  /// WindowedPartial. Counts and strata merge serially (cheap integer
  /// folds); the per-group sketch chains fan out over `pool` when
  /// given — the canonical key order is fixed serially first, then each
  /// worker folds one group's buckets in ascending order into its own
  /// slot, so the result is identical for every thread count. Pass
  /// nullptr to run fully serial.
  audit::WindowedPartial Window(ThreadPool* pool) const;

  /// Buckets Window() merges right now: the live ones holding events.
  size_t num_live_buckets() const { return LiveBuckets().size(); }

 private:
  struct Slot {
    int64_t bucket_index = -1;  // absolute; -1 = never used
    audit::WindowedPartial partial;
  };

  /// Resets the slots claimed by advancing the watermark to `bucket`.
  void Advance(int64_t bucket);

  /// Live buckets holding events, in ascending absolute order.
  std::vector<const audit::WindowedPartial*> LiveBuckets() const;

  int64_t bucket_width_;
  int64_t num_buckets_;
  stats::KllSketch::Options sketch_options_;
  bool with_scores_;
  int64_t watermark_ = -1;
  std::vector<Slot> slots_;
};

}  // namespace fairlaw::serve

#endif  // FAIRLAW_SERVE_WINDOW_H_
