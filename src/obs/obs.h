#ifndef FAIRLAW_OBS_OBS_H_
#define FAIRLAW_OBS_OBS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

/// fairlaw::obs — allocation-light observability for the audit stack.
///
/// Three probe kinds, all registered in a process-wide Registry:
///
///   * Counter    — monotonically increasing uint64 (rows audited,
///                  subgroup cells, pruned subtrees, ...).
///   * Histogram  — fixed log2 buckets over uint64 values (batch
///                  sizes, ...). No dynamic bucket allocation;
///                  bucket b holds values whose bit width is b
///                  (bucket 0 holds the value 0).
///   * TraceSpan  — RAII wall-time span with parent/child nesting.
///                  Spans aggregate per thread (no lock on the hot
///                  path) and merge into the registry keyed by their
///                  '/'-joined path; the export sorts by path, never
///                  by completion order.
///
/// Determinism contract: ExportJson() is byte-identical for any
/// `num_threads` on the same input. Counts, histogram contents, and
/// span paths depend only on the work performed; wall-clock totals do
/// not, so they are excluded unless ExportOptions.include_timings is
/// set (a profiling mode, documented as non-reproducible).
///
/// Kill switch: configure with -DFAIRLAW_OBS=OFF to compile every probe
/// to a no-op, or set the environment variable FAIRLAW_OBS=off (also
/// "0"/"false") to disable at startup; SetEnabled() overrides at
/// runtime. Disabled probes never touch the clock.
///
/// This module sits at rank 1 of the layering DAG (next to stats): it
/// depends only on base/, so data, stats, metrics, audit, mitigation,
/// and the tools can all report through it.
namespace fairlaw::obs {

/// True when probes are live (compile switch on, not disabled by the
/// FAIRLAW_OBS environment variable or SetEnabled(false)).
bool Enabled();

/// Runtime override of the kill switch (benchmarks measure probe
/// overhead by flipping this; tests isolate themselves with it).
void SetEnabled(bool enabled);

/// Monotonic nanosecond clock. The one sanctioned timing source:
/// fairlaw_check bans raw std::chrono::steady_clock outside src/obs/ so
/// every measurement flows through the same clock and kill switch.
uint64_t MonotonicNowNs();

/// Monotonically increasing counter. Increment is one relaxed atomic
/// add; cross-thread increments commute, so totals are deterministic
/// for any schedule.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }

  /// Adds `delta`; no-op when disabled.
  void Increment(uint64_t delta = 1) {
    if (Enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket log2 histogram: bucket 0 counts the value 0, bucket b
/// (1..64) counts values in [2^(b-1), 2^b - 1]. Recording is two
/// relaxed atomic adds; no allocation ever.
class Histogram {
 public:
  /// Bucket 0 plus one bucket per possible bit width.
  static constexpr size_t kNumBuckets = 65;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const std::string& name() const { return name_; }

  /// Records one observation; no-op when disabled.
  void Record(uint64_t value);

  /// Total observations / sum of observed values.
  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Observations in `bucket` (< kNumBuckets).
  uint64_t BucketCount(size_t bucket) const;

  /// The bucket `value` lands in: 0 for 0, else std::bit_width(value).
  static size_t BucketOf(uint64_t value);

  /// Largest value bucket `b` admits (0, 1, 3, 7, ..., 2^64-1).
  static uint64_t BucketUpperBound(size_t bucket);

  void Reset();

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets]{};
};

/// Export controls. The default export carries only schedule-invariant
/// data; include_timings adds per-span "total_ns", which varies run to
/// run and must not be diffed or golden-tested.
struct ExportOptions {
  bool include_timings = false;
};

/// Process-wide probe registry. Lookup takes a mutex (probes cache the
/// returned pointer or look up once per run, not per row); Counter and
/// Histogram operations are lock-free.
class Registry {
 public:
  /// The global instance (leaked singleton: safe from thread-exit
  /// destructors running during process teardown).
  static Registry& Global();

  /// Returns the named probe, creating it on first use. Pointers stay
  /// valid for the process lifetime.
  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Folds `count` completions totalling `total_ns` into the span stats
  /// for `path`. Called by the per-thread span aggregator on thread
  /// exit and on export; rarely needed directly.
  void MergeSpan(std::string_view path, uint64_t count, uint64_t total_ns);

  /// Serializes every probe as one JSON object, keys sorted by probe
  /// name / span path. Flushes the calling thread's span aggregate
  /// first; spans recorded on other still-live threads are not visible
  /// until those threads exit (the audit paths join their pools before
  /// exporting).
  std::string ExportJson(const ExportOptions& options = {});

  /// Zeroes every counter and histogram and drops all span stats
  /// (including the calling thread's unflushed aggregate).
  void Reset();

 private:
  Registry() = default;
  struct Impl;
  Impl* impl();  // lazily built so the ctor stays trivial
  std::atomic<Impl*> impl_{nullptr};
};

/// Registry::Global() conveniences — the spelling instrumentation sites
/// use.
Counter* GetCounter(std::string_view name);
Histogram* GetHistogram(std::string_view name);
std::string ExportJson(const ExportOptions& options = {});
void ResetAll();

/// Path of the innermost active span on the calling thread ("" at top
/// level). Capture it before handing work to a pool, then rebuild the
/// nesting on the worker with TraceSpan(name, parent_path) — that keeps
/// span paths identical whether the work ran inline or on a worker.
std::string CurrentPath();

/// RAII wall-time span. Nested spans join their names with '/':
///
///   obs::TraceSpan run("run_audit");          // path "run_audit"
///   obs::TraceSpan m("metric/dp");            // "run_audit/metric/dp"
///
/// The destructor folds (count += 1, total_ns += elapsed) into the
/// calling thread's aggregate; per-thread aggregates merge into the
/// Registry keyed by path, so the export never depends on completion
/// order. When obs is disabled construction and destruction do nothing
/// (no clock read, no allocation).
class TraceSpan {
 public:
  /// Nests under the calling thread's current span.
  explicit TraceSpan(std::string_view name);

  /// Nests under `parent_path` (from CurrentPath()) regardless of the
  /// calling thread — the cross-thread nesting constructor.
  TraceSpan(std::string_view name, std::string_view parent_path);

  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Open(std::string_view name, std::string_view parent_path);

  std::string path_;    // empty when the span is disabled
  std::string parent_;  // thread's current path at construction
  uint64_t start_ns_ = 0;
};

}  // namespace fairlaw::obs

#endif  // FAIRLAW_OBS_OBS_H_
