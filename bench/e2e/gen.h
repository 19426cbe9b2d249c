#ifndef FAIRLAW_BENCH_E2E_GEN_H_
#define FAIRLAW_BENCH_E2E_GEN_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "stats/rng.h"

/// Seeded inputs for the end-to-end benchmark: the audit workloads' CSVs,
/// the serve workloads' request schedules, and the exact reference
/// tallies the output checks compare against. Every input is a pure
/// function of (workload, scale, seed); the programs under test receive
/// only the generated files and lines.
namespace fairlaw::bench {

enum class Workload { kAuditStream, kAuditSuite, kServeIngest, kServeQuery };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kAuditStream, Workload::kAuditSuite, Workload::kServeIngest,
    Workload::kServeQuery};

const char* WorkloadName(Workload workload);
FAIRLAW_NODISCARD Result<Workload> ParseWorkload(std::string_view name);

/// Input sizes. `Full` is what the recorded numbers use; `Smoke` shrinks
/// every workload so the whole suite and all of its checks finish in a
/// few seconds.
struct Scale {
  std::string name;
  size_t stream_rows = 0;        // audit_stream CSV rows
  size_t suite_rows = 0;         // audit_suite CSV rows
  size_t saturation_events = 0;  // serve_ingest closed-loop replay
  double ingest_rate = 0.0;      // serve_ingest open-loop events/s
  size_t query_buckets = 0;      // serve_query window (1000 events each)
  size_t query_burst = 0;        // serve_query closed-loop queries/burst
  double query_event_rate = 0.0;  // serve_query open-loop events/s
  double query_rate = 0.0;        // serve_query open-loop queries/s
};
Scale FullScale();
Scale SmokeScale();

/// Exact per-group reference counts, groups in first-seen order.
struct GroupTally {
  std::string group;
  int64_t count = 0;
  int64_t positives = 0;  // pred == 1
};
struct Tallies {
  int64_t rows = 0;
  std::vector<GroupTally> groups;
  /// Events the daemon must refuse as too late (serve workloads).
  int64_t rejected = 0;

  /// Adds one row to `group`'s tally, appending the group on first sight.
  void Add(const std::string& group, int pred);
  const GroupTally* Find(std::string_view group) const;
};

FAIRLAW_NODISCARD Status SaveTallies(const Tallies& tallies,
                                     const std::string& path);
FAIRLAW_NODISCARD Result<Tallies> LoadTallies(const std::string& path);

/// The protected-group column: `count` groups g00, g01, ... drawn with
/// Zipf(1.1) weights, each with its own positive-prediction rate so the
/// fairness gates have something to find.
class GroupDraw {
 public:
  explicit GroupDraw(size_t count);
  size_t Draw(stats::Rng* rng) const;
  size_t size() const { return names_.size(); }
  const std::string& name(size_t g) const { return names_[g]; }
  double pred_rate(size_t g) const;
  double base_rate(size_t g) const;

 private:
  std::vector<double> weights_;
  std::vector<std::string> names_;
};

/// Writes the CSV of an audit workload (audit_stream or audit_suite) with
/// `rows` rows to `path`, filling `tallies`; `head_path`, when non-empty,
/// receives the header plus the first 100 rows (the set-up probe input).
FAIRLAW_NODISCARD Status WriteAuditCsv(Workload workload, uint64_t seed,
                                       size_t rows, const std::string& path,
                                       const std::string& head_path,
                                       Tallies* tallies);

/// Shape of a serve workload's event stream and of the daemon that
/// consumes it (the daemon flags are derived from the same values).
struct ServeSpec {
  size_t num_groups = 8;
  size_t num_strata = 2;
  int64_t bucket_width = 1000;
  size_t window_buckets = 60;
  /// Share of events stamped 1..5 buckets in the past (accepted).
  double out_of_order_frac = 0.0;
  /// Share of events stamped before the window (rejected by design).
  double too_late_frac = 0.0;
};
ServeSpec IngestSpec();
ServeSpec QuerySpec();

/// One generated event. Event time advances by one per event, so every
/// bucket holds `bucket_width` events.
struct GenEvent {
  int64_t t = 0;
  size_t group = 0;
  int pred = 0;
  int label = 0;
  int64_t score_micros = 0;
  size_t stratum = 0;
  /// The daemon must reject it: its bucket lies before the window the
  /// watermark defines when the event arrives.
  bool too_late = false;
};

class EventStream {
 public:
  EventStream(const ServeSpec& spec, uint64_t seed);
  GenEvent Next();
  /// Appends the event's JSON object to `out`.
  void Render(const GenEvent& event, std::string* out) const;
  const GroupDraw& groups() const { return groups_; }

 private:
  ServeSpec spec_;
  stats::Rng rng_;
  GroupDraw groups_;
  int64_t index_ = 0;
  int64_t watermark_ = -1;
};

/// One request line of a serve session.
struct Line {
  enum class Kind { kIngest, kQuery, kStats };
  Kind kind = Kind::kIngest;
  std::string text;
  /// Paced phases only: due time relative to the phase start.
  uint64_t due_ns = 0;
  int32_t events = 0;
  int32_t expected_rejects = 0;
};

/// A run of lines sent either as fast as the pipe accepts (closed loop)
/// or on the schedule their due times give (open loop). A phase starts
/// only after every response of the previous phase has arrived.
struct Phase {
  std::string name;
  bool paced = false;
  std::vector<Line> lines;
  size_t queries = 0;
};

struct ServeSession {
  std::vector<Phase> phases;
  /// Exact per-group counts of the accepted events inside the final
  /// window — what the closing four_fifths query must report — plus the
  /// number of events the daemon must reject over the whole session.
  Tallies final_window;
  size_t total_lines = 0;
};

/// Builds a session phase by phase from one event stream. Queries rotate
/// through audit, four_fifths, drift, quantiles, and drilldown.
class SessionBuilder {
 public:
  SessionBuilder(const ServeSpec& spec, uint64_t seed);

  /// Closed-loop phase of `events` events in batches of `batch`.
  void AddIngest(const std::string& name, size_t events, size_t batch);
  /// Closed-loop phase of `queries` rotating queries.
  void AddQueries(const std::string& name, size_t queries);
  /// Open-loop phase: `event_rate` events/s in batches of `batch` plus
  /// `query_rate` queries/s, for `seconds`.
  void AddOpenLoop(const std::string& name, double event_rate, size_t batch,
                   double query_rate, double seconds);
  /// Closed-loop phase of one line.
  void AddSingle(const std::string& name, Line::Kind kind,
                 const std::string& text);
  ServeSession Finish();

 private:
  Line MakeIngest(size_t events);
  Line MakeQuery();

  ServeSpec spec_;
  EventStream stream_;
  ServeSession session_;
  size_t next_query_ = 0;
  int64_t watermark_ = -1;
  /// bucket -> per-group (count, positives) of accepted events.
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> buckets_;
};

inline constexpr const char* kStatsLine = R"({"op":"stats"})";
inline constexpr const char* kFourFifthsLine =
    R"({"op":"query","type":"four_fifths"})";

}  // namespace fairlaw::bench

#endif  // FAIRLAW_BENCH_E2E_GEN_H_
