#ifndef FAIRLAW_SERVE_WINDOW_H_
#define FAIRLAW_SERVE_WINDOW_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
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

  /// Bumped by every accepted event, the only way the ring changes: a
  /// rejected event never advances the watermark, because an event that
  /// advances it always lands in the window. A WindowSnapshot built at
  /// one version describes the ring for as long as it keeps it.
  uint64_t version() const { return version_; }

  /// Highest bucket index seen; -1 before any event.
  int64_t watermark() const { return watermark_; }
  /// Events currently held across live buckets.
  uint64_t num_events() const;
  /// First bucket the window covers (max(0, watermark - num_buckets + 1)).
  int64_t window_start() const;

  /// Merges the live buckets, in ascending bucket order, into one
  /// WindowedPartial: the tally fold (counts and strata, serially), then
  /// the canonical key order, then every per-group sketch chain, fanned
  /// out over `pool` when given. Each worker folds one group's buckets
  /// in ascending order into its own slot, so the result is identical
  /// for every thread count. Pass nullptr to run fully serial. The same
  /// fold bodies build a WindowSnapshot's parts.
  audit::WindowedPartial Window(ThreadPool* pool) const;

  /// Buckets Window() merges right now: the live ones holding events.
  size_t num_live_buckets() const { return LiveBuckets().size(); }

 private:
  friend class WindowSnapshot;

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
  uint64_t version_ = 0;
  std::vector<Slot> slots_;
};

/// The window of one ring version, built a part at a time as queries
/// need it (DESIGN.md §15). Three parts: the tallies (counts, strata,
/// num_rows), the per-group sketch chains, and the evaluated windowed
/// audit. Each is built at most once per version, and all of them are
/// dropped when the ring's version moves. The parts come from
/// WindowRing::Window's own fold bodies in its order, so whatever a
/// query reads here is what it would read from a fresh Window().
class WindowSnapshot {
 public:
  /// `ring` must outlive the snapshot.
  explicit WindowSnapshot(const WindowRing& ring);

  /// The window's counts, strata and num_rows; its sketches are not
  /// folded.
  const audit::WindowedPartial& Tallies();

  /// `group`'s window sketch, its chain folded serially on first use;
  /// nullptr when no live bucket holds a score for the group.
  const stats::KllSketch* Sketch(std::string_view group);

  /// The windowed audit over the whole window (Auditor::Run over a
  /// window source), evaluated once per version after the chains not
  /// yet folded fan out over `pool`. `config` must be the same on every
  /// call.
  FAIRLAW_NODISCARD const Result<audit::AuditResult>& Audit(
      const audit::AuditConfig& config, ThreadPool* pool);

 private:
  /// Drops every part when the ring has moved since they were built.
  void Sync();
  /// Fixes the canonical sketch key order, once per version.
  void FoldKeys();

  const WindowRing& ring_;
  /// The ring version every field below describes.
  uint64_t version_;
  std::vector<const audit::WindowedPartial*> buckets_;
  bool tallies_folded_ = false;
  bool keys_folded_ = false;
  std::vector<uint8_t> chain_folded_;  // by sketch key index
  audit::WindowedPartial window_;
  std::optional<Result<audit::AuditResult>> audit_;
};

}  // namespace fairlaw::serve

#endif  // FAIRLAW_SERVE_WINDOW_H_
