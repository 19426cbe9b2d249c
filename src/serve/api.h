#ifndef FAIRLAW_SERVE_API_H_
#define FAIRLAW_SERVE_API_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "audit/report_io.h"
#include "base/result.h"
#include "serve/json_value.h"

namespace fairlaw::serve {

/// The serve wire protocol: one JSON document per line in, one per
/// line out, every document carrying `schema_version` (the shared
/// report-envelope version from audit/report_io.h — requests and
/// responses version together). Versioning rules (DESIGN.md §15):
/// fields are only ever added within a version; a request without
/// `schema_version` is taken as current; a request from a newer version
/// than the daemon speaks is refused with NotImplemented rather than
/// half-understood.

/// Daemon configuration, fixed at startup. The ingest schema is
/// declared here — which optional event fields this daemon expects —
/// so every window bucket accumulates the same shape and responses
/// stay byte-identical however events are batched.
struct ServeConfig {
  /// Event-time units per window bucket (events carry integer `t`;
  /// the daemon never reads a wall clock on the data path).
  int64_t bucket_width = 1000;
  /// Ring size: the sliding window covers the last `num_buckets`
  /// buckets ending at the watermark (the highest bucket seen).
  size_t num_buckets = 60;
  /// Whether events must carry `label` (enables the label metrics).
  bool with_labels = true;
  /// Whether events must carry `score` (enables sketch drift and
  /// quantile queries). Requires with_labels, mirroring AuditConfig.
  bool with_scores = true;
  /// Whether events must carry `stratum` (enables the conditional
  /// metrics and drill-down queries).
  bool with_strata = false;
  /// Worker threads for the window sketch folds (merging the ring's
  /// buckets into one window): 1 = serial, 0 = one per hardware thread.
  /// Metric evaluation is serial. Responses are byte-identical for every
  /// value.
  size_t num_threads = 1;
  /// KLL accuracy parameter for the per-group score sketches.
  uint32_t sketch_k = 200;

  /// Audit thresholds forwarded into the windowed AuditConfig.
  double tolerance = 0.05;
  double di_threshold = 0.8;
  double drift_tolerance = 0.1;
  size_t min_stratum_size = 10;

  FAIRLAW_NODISCARD Status Validate() const;

  /// The AuditConfig a window evaluation runs under. Column names are
  /// the protocol's logical field names ("group", "pred", ...) — no
  /// table exists, they only tell the shared evaluators which metric
  /// families to run.
  audit::AuditConfig ToAuditConfig() const;
};

/// One prediction/outcome event. `t` is event time in the caller's
/// units; bucketing uses t / bucket_width. Optional fields are present
/// iff the daemon's schema requires them (ServeConfig).
struct Event {
  int64_t t = 0;
  std::string group;
  int pred = 0;
  int label = 0;
  bool has_label = false;
  double score = 0.0;
  bool has_score = false;
  std::string stratum;
  bool has_stratum = false;

  /// Checks the event against the daemon's declared schema: required
  /// fields present, pred/label binary, score finite, t >= 0.
  FAIRLAW_NODISCARD Status Validate(const ServeConfig& config) const;
};

/// {"op":"ingest","events":[...]} — append a batch of events.
struct IngestRequest {
  std::vector<Event> events;
};

/// {"op":"query","type":...} — evaluate over the current window.
struct QueryRequest {
  /// "audit" (full windowed suite), "four_fifths", "drift",
  /// "drilldown" (group metrics within one stratum), or "quantiles"
  /// (per-group score quantiles from the sketches).
  std::string type;
  /// For "drilldown": the stratum key.
  std::string stratum;
  /// For "quantiles": the group key and the quantiles to evaluate.
  std::string group;
  std::vector<double> quantiles;

  FAIRLAW_NODISCARD Status Validate(const ServeConfig& config) const;
};

/// A parsed request line.
struct Request {
  enum class Op { kIngest, kQuery, kStats };
  Op op = Op::kIngest;
  IngestRequest ingest;
  QueryRequest query;
};

/// Parses and validates one request document against the daemon's
/// schema. Unknown fields are ignored (additive evolution); unknown
/// ops, missing required fields, and future schema_versions are errors.
FAIRLAW_NODISCARD Result<Request> ParseRequest(const JsonValue& doc,
                                               const ServeConfig& config);

/// The daemon's ingest fast path: decodes `{"op":"ingest","events":[...]}`
/// in one pass over `line`, with no JsonValue tree, into `*events` (its
/// old elements are replaced, so a caller that keeps the vector reuses
/// its capacity; after a false return its contents mean nothing). It
/// takes the canonical shape only: keys in any order, an optional
/// `schema_version` this daemon speaks, JSON whitespace, strings without
/// escapes, and event fields t/group/pred/label/score/stratum with
/// integral t, pred and label in {0,1}. Anything else — an escape, an
/// unknown or repeated key, a wrong type, a number fairlaw::ParseDouble
/// or ParseInt64 refuses, any syntax error — returns false, and the
/// caller answers the line through JsonValue::Parse + ParseRequest.
/// When it returns true, `*events` equals ParseRequest(JsonValue::Parse(
/// line)).ingest.events field for field, so which path answers a line
/// changes no response byte.
FAIRLAW_NODISCARD bool DecodeIngestLine(std::string_view line,
                                        std::vector<Event>* events);

}  // namespace fairlaw::serve

#endif  // FAIRLAW_SERVE_API_H_
