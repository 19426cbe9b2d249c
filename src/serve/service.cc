#include "serve/service.h"

#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/auditor.h"
#include "audit/evaluate.h"
#include "audit/report_io.h"
#include "audit/windowed.h"
#include "base/json_writer.h"
#include "metrics/fairness_metric.h"
#include "obs/obs.h"
#include "serve/json_value.h"
#include "stats/kll.h"
#include "stats/mergeable.h"

namespace fairlaw::serve {

namespace {

/// Frame prelude shared by every query response: schema_version, op,
/// type, and the window span the answer was computed over (all pure
/// functions of the event sequence).
void BeginQueryFrame(JsonWriter* json, const std::string& type,
                     const WindowRing& ring) {
  json->BeginObject();
  json->Field("schema_version", audit::kReportSchemaVersion);
  json->Field("op", std::string("query"));
  json->Field("type", type);
  json->Key("window");
  json->BeginObject();
  json->Field("start_bucket", ring.window_start());
  json->Field("watermark", ring.watermark());
  json->Field("events", static_cast<int64_t>(ring.num_events()));
  json->EndObject();
}

/// Ops that name an error frame and a latency series; index 0 stands
/// for every request whose op could not be recovered. Only these four
/// may name a probe, so an arbitrary op string cannot mint unbounded
/// registry probes.
constexpr const char* kOpLabels[] = {"error", "ingest", "query", "stats"};

std::string FinishFrame(JsonWriter* json) {
  json->EndObject();
  // flowcheck: allow-unchecked-result (handlers balance their scopes by construction; Finish only fails on unclosed containers)
  return json->Finish().ValueOrDie();
}

/// A request that never made it to a handler (parse failure, unknown
/// op, schema mismatch). `op_label` echoes the request's op when it
/// could be recovered, else "error".
std::string RequestErrorFrame(const std::string& op_label,
                              const Status& status) {
  JsonWriter json;
  json.BeginObject();
  json.Field("schema_version", audit::kReportSchemaVersion);
  json.Field("op", op_label);
  audit::WriteErrorObject(&json, status);
  return FinishFrame(&json);
}

}  // namespace

/// The three counts are pure functions of the event/query sequence
/// (events accepted, events rejected, buckets folded by queries), so
/// including them cannot break the byte-identity contract. They keep
/// their obs names; batch-dependent telemetry (serve.requests, latency
/// histograms) is only reachable through the stats op.
void Service::WriteQueryCounts(JsonWriter* json) const {
  json->Key("obs");
  json->BeginObject();
  json->Field("serve.events_ingested", static_cast<int64_t>(events_ingested_));
  json->Field("serve.events_rejected", static_cast<int64_t>(events_rejected_));
  json->Field("serve.window_merges", static_cast<int64_t>(window_merges_));
  json->EndObject();
}

/// A recognized query that cannot be answered (empty window, unknown
/// group, ...). Keeps "op":"query" so the frame participates in the
/// batch-identity comparison — the same query against the same events
/// fails identically however the events were batched.
std::string Service::QueryErrorFrame(const std::string& type,
                                     const Status& status) const {
  JsonWriter json;
  BeginQueryFrame(&json, type, ring_);
  audit::WriteErrorObject(&json, status);
  WriteQueryCounts(&json);
  return FinishFrame(&json);
}

Service::Service(const ServeConfig& config)
    : config_(config),
      audit_config_(config.ToAuditConfig()),
      ring_(config),
      snapshot_(ring_) {
  if (config_.num_threads != 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
}

std::string Service::HandleLine(std::string_view line) {
  const uint64_t start_ns = obs::MonotonicNowNs();
  static obs::Counter* const requests = obs::GetCounter("serve.requests");
  requests->Increment();

  size_t op = 0;  // index into kOpLabels
  std::string response;
  // Canonical ingest lines skip the tree: the decoder reads the whole
  // line before anything is ingested and declines everything else, so
  // each error frame below stays the one JsonValue::Parse and
  // ParseRequest produce.
  if (DecodeIngestLine(line, &decoded_events_)) {
    op = 1;  // "ingest"
    response = HandleIngest(decoded_events_);
  } else if (Result<JsonValue> doc = JsonValue::Parse(line); !doc.ok()) {
    response = RequestErrorFrame(kOpLabels[op], doc.status());
  } else {
    // Recover the op for error frames and latency attribution even when
    // the request fails validation.
    if (doc.ValueOrDie().is_object()) {
      if (const JsonValue* op_value = doc.ValueOrDie().GetOrNull("op");
          op_value != nullptr && op_value->is_string()) {
        Result<std::string> name = op_value->AsString();
        for (size_t i = 1; name.ok() && i < std::size(kOpLabels); ++i) {
          if (name.ValueOrDie() == kOpLabels[i]) op = i;
        }
      }
    }
    Result<Request> request = ParseRequest(doc.ValueOrDie(), config_);
    if (!request.ok()) {
      response = RequestErrorFrame(kOpLabels[op], request.status());
    } else {
      switch (request.ValueOrDie().op) {
        case Request::Op::kIngest:
          response = HandleIngest(request.ValueOrDie().ingest.events);
          break;
        case Request::Op::kQuery:
          response = HandleQuery(request.ValueOrDie().query);
          break;
        case Request::Op::kStats:
          response = HandleStats();
          break;
      }
    }
  }
  static_assert(std::size(kOpLabels) ==
                std::tuple_size_v<decltype(latency_probes_)>);
  obs::Histogram*& latency = latency_probes_[op];
  if (latency == nullptr) {
    latency = obs::GetHistogram(std::string("serve.latency.") +
                                kOpLabels[op] + "_ns");
  }
  latency->Record(obs::MonotonicNowNs() - start_ns);
  return response;
}

std::string Service::HandleIngest(const std::vector<Event>& events) {
  obs::TraceSpan span("serve/ingest");
  int64_t accepted = 0;
  int64_t rejected = 0;
  for (const Event& event : events) {
    Status status = event.Validate(config_);
    if (status.ok()) status = ring_.Ingest(event);
    if (status.ok()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  events_ingested_ += static_cast<uint64_t>(accepted);
  events_rejected_ += static_cast<uint64_t>(rejected);
  static obs::Counter* const ingested_probe =
      obs::GetCounter("serve.events_ingested");
  static obs::Counter* const rejected_probe =
      obs::GetCounter("serve.events_rejected");
  ingested_probe->Increment(static_cast<uint64_t>(accepted));
  rejected_probe->Increment(static_cast<uint64_t>(rejected));

  // The ack legitimately depends on batching (per-batch counts), so it
  // is excluded from the byte-identity comparison.
  JsonWriter json;
  json.BeginObject();
  json.Field("schema_version", audit::kReportSchemaVersion);
  json.Field("op", std::string("ingest"));
  json.Field("accepted", accepted);
  json.Field("rejected", rejected);
  json.Field("watermark", ring_.watermark());
  return FinishFrame(&json);
}

std::string Service::HandleQuery(const QueryRequest& request) {
  obs::TraceSpan span("serve/query");
  window_merges_ += ring_.num_live_buckets();

  if (request.type == "audit" || request.type == "drift") {
    const Result<audit::AuditResult>& result =
        snapshot_.Audit(audit_config_, pool_.get());
    if (!result.ok()) {
      return QueryErrorFrame(request.type, result.status());
    }
    const audit::AuditResult& audit_result = result.ValueOrDie();
    JsonWriter json;
    BeginQueryFrame(&json, request.type, ring_);
    if (request.type == "audit") {
      json.Key("findings");
      audit::WriteAuditFindings(&json, audit_result);
    } else {
      if (!audit_result.score_distribution.has_value()) {
        return QueryErrorFrame(
            request.type,
            Status::FailedPrecondition(
                "drift: the windowed audit produced no score-distribution "
                "report"));
      }
      json.Key("score_distribution");
      audit::WriteScoreDistributionReport(&json,
                                          *audit_result.score_distribution);
    }
    WriteQueryCounts(&json);
    return FinishFrame(&json);
  }

  if (request.type == "four_fifths") {
    // The windowed audit's metric rows without its drift step: that
    // step only runs sketch kernels on non-empty pairs, so it cannot
    // fail, and the rows and errors are the full audit's.
    Result<audit::AuditResult> result = audit::EvaluateWindowMetrics(
        snapshot_.Tallies(), audit_config_, obs::CurrentPath());
    if (!result.ok()) {
      return QueryErrorFrame(request.type, result.status());
    }
    Result<const metrics::MetricReport*> report =
        result.ValueOrDie().Find("disparate_impact_ratio");
    if (!report.ok()) {
      return QueryErrorFrame(request.type, report.status());
    }
    JsonWriter json;
    BeginQueryFrame(&json, request.type, ring_);
    json.Key("four_fifths");
    audit::WriteMetricReport(&json, *report.ValueOrDie());
    WriteQueryCounts(&json);
    return FinishFrame(&json);
  }

  if (request.type == "drilldown") {
    const stats::StratifiedCountsAccumulator& strata =
        snapshot_.Tallies().strata_counts;
    const size_t index = strata.FindKey(request.stratum);
    if (index == strata.num_keys()) {
      return QueryErrorFrame(
          request.type,
          Status::NotFound("drilldown: stratum '" + request.stratum +
                           "' not present in the window"));
    }
    // Stratum tallies only retain counts and positive predictions, so
    // the drill-down runs the prediction-only metric family — exactly
    // what a conditional metric would compute within this stratum.
    audit::EvaluateInputs inputs;
    inputs.counts = &strata.stratum(index);
    inputs.has_labels = false;
    Result<audit::AuditResult> result =
        audit::EvaluateMetrics(inputs, audit_config_, obs::CurrentPath());
    if (!result.ok()) {
      return QueryErrorFrame(request.type, result.status());
    }
    JsonWriter json;
    BeginQueryFrame(&json, request.type, ring_);
    json.Field("stratum", request.stratum);
    json.Key("findings");
    audit::WriteAuditFindings(&json, result.ValueOrDie());
    WriteQueryCounts(&json);
    return FinishFrame(&json);
  }

  // "quantiles" — QueryRequest::Validate admits nothing else.
  const stats::KllSketch* sketch = snapshot_.Sketch(request.group);
  if (sketch == nullptr) {
    return QueryErrorFrame(
        request.type,
        Status::NotFound("quantiles: group '" + request.group +
                         "' not present in the window"));
  }
  JsonWriter json;
  BeginQueryFrame(&json, request.type, ring_);
  json.Field("group", request.group);
  json.Field("count", static_cast<int64_t>(sketch->count()));
  json.Key("quantiles");
  json.BeginArray();
  for (double q : request.quantiles) {
    Result<double> value = sketch->Quantile(q);
    if (!value.ok()) {
      return QueryErrorFrame(request.type, value.status());
    }
    json.BeginObject();
    json.Field("q", q);
    json.Field("value", value.ValueOrDie());
    json.EndObject();
  }
  json.EndArray();
  WriteQueryCounts(&json);
  return FinishFrame(&json);
}

std::string Service::HandleStats() {
  obs::TraceSpan span("serve/stats");
  // Full telemetry — counters, histograms, span stats — straight from
  // the registry export (already a sorted-key JSON object). Carries
  // batch- and timing-dependent data by design, so stats responses are
  // excluded from identity comparisons.
  return "{\"schema_version\":" + std::to_string(audit::kReportSchemaVersion) +
         ",\"op\":\"stats\",\"obs\":" + obs::ExportJson() + "}";
}

}  // namespace fairlaw::serve
