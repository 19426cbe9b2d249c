#include "bench/e2e/trace.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "audit/evaluate.h"
#include "audit/partials.h"
#include "audit/report_io.h"
#include "audit/source.h"
#include "base/json_writer.h"
#include "base/thread_pool.h"
#include "bench/e2e/proc.h"
#include "bench/e2e/session.h"
#include "core/json.h"
#include "data/csv.h"
#include "obs/obs.h"
#include "serve/json_value.h"
#include "serve/service.h"
#include "serve/window.h"

namespace fairlaw::bench {

namespace {

/// The layers a span can stand for. kPass is the whole traced pass; its
/// self time is the benchmark's own glue between library calls.
enum Layer : size_t {
  kPass,
  kCsvOpen,
  kCsvNext,
  kProcessChunk,
  kFold,
  kEvaluate,
  kReadCsv,
  kRunTable,
  kProxy,
  kSubgroups,
  kMetricInput,
  kSampling,
  kFourFifths,
  kSuiteJson,
  kHandleLine,
  kJsonParse,
  kParseRequest,
  kEventValidate,
  kWindowIngest,
  kWindowMerge,
  kWindowedEval,
  kKllQuantile,
  kReportIo,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "bench.pass",          "data.csv_open",       "data.csv_next",
    "audit.process_chunk", "audit.fold",          "audit.evaluate",
    "data.read_csv",       "audit.run_table",     "audit.proxy",
    "audit.subgroups",     "audit.metric_input",  "audit.sampling",
    "legal.four_fifths",   "core.suite_json",     "serve.handle_line",
    "serve.json_parse",    "serve.parse_request", "serve.event_validate",
    "serve.window_ingest", "serve.window_merge",  "audit.windowed_eval",
    "stats.kll_quantile",  "audit.report_io",
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. Each
/// workload prints all of them; a layer the workload never reaches reads
/// 0, which is the prediction for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"data.csv_open.busy_s", "s"},
    {"data.csv_next.busy_s", "s"},
    {"data.csv_next.calls", "count"},
    {"audit.process_chunk.busy_s", "s"},
    {"audit.process_chunk.calls", "count"},
    {"audit.fold.busy_s", "s"},
    {"audit.evaluate.busy_s", "s"},
    {"data.read_csv.busy_s", "s"},
    {"audit.run_table.busy_s", "s"},
    {"audit.proxy.busy_s", "s"},
    {"audit.subgroups.busy_s", "s"},
    {"audit.subgroups.examined", "count"},
    {"audit.metric_input.busy_s", "s"},
    {"audit.sampling.busy_s", "s"},
    {"legal.four_fifths.busy_s", "s"},
    {"core.suite_json.busy_s", "s"},
    {"serve.handle_line.busy_s", "s"},
    {"serve.json_parse.busy_s", "s"},
    {"serve.json_parse.bytes", "bytes"},
    {"serve.parse_request.busy_s", "s"},
    {"serve.event_validate.busy_s", "s"},
    {"serve.window_ingest.busy_s", "s"},
    {"serve.window_ingest.events", "count"},
    {"serve.window_ingest.rejected", "count"},
    {"serve.window_merge.busy_s", "s"},
    {"serve.window_merge.calls", "count"},
    {"serve.window_merge.buckets", "count"},
    {"serve.window_merge.useful_ratio", "ratio"},
    {"audit.windowed_eval.busy_s", "s"},
    {"stats.kll_quantile.busy_s", "s"},
    {"audit.report_io.busy_s", "s"},
    {"tools.serve_io.share", "ratio"},
    {"audit.reader_share", "ratio"},
    {"audit.thread_scaling", "ratio"},
    {"serve.thread_penalty", "ratio"},
    {"serve.e2e_over_inprocess", "ratio"},
    {"bench.sustained_events_per_s", "events/s"},
    {"bench.latency_tail_ms", "ms"},
    {"bench.latency_tail_pct", "%"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.backlog_max_lines", "lines"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.traced_wall_s", "s"},
    {"bench.span_coverage", "ratio"},
};

/// A traced pass must attribute at least this share of its wall time to
/// library layers; the rest is the benchmark's own glue.
constexpr double kMinCoverage = 0.95;

using Values = std::map<std::string, double>;

/// Spans held in memory for one pass. Disabled, it never reads the clock,
/// which is what the spans-off pass measures against.
class SpanRecorder {
 public:
  struct Span {
    Layer layer = kPass;
    int64_t parent = -1;
    int64_t request = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t child_ns = 0;  // time covered by child spans and timed calls
  };
  struct Total {
    uint64_t busy_ns = 0;  // self time
    uint64_t calls = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  uint64_t Now() const { return enabled_ ? obs::MonotonicNowNs() : 0; }

  void Open(Layer layer, int64_t request) {
    if (!enabled_) return;
    Span span;
    span.layer = layer;
    span.request = request;
    span.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    span.start_ns = obs::MonotonicNowNs();
    stack_.push_back(spans_.size());
    spans_.push_back(span);
  }

  void Close() {
    if (!enabled_) return;
    Span& span = spans_[stack_.back()];
    stack_.pop_back();
    span.end_ns = obs::MonotonicNowNs();
    const uint64_t duration = span.end_ns - span.start_ns;
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_ns += duration;
    }
    Total& total = totals_[span.layer];
    total.busy_ns += duration - std::min(duration, span.child_ns);
    total.calls += 1;
  }

  /// A call too frequent for a span of its own (one per event): its time
  /// counts toward `layer` and out of the enclosing span's self time.
  void AddTimed(Layer layer, uint64_t start_ns) {
    if (!enabled_) return;
    const uint64_t ns = obs::MonotonicNowNs() - start_ns;
    totals_[layer].busy_ns += ns;
    totals_[layer].calls += 1;
    if (!stack_.empty()) spans_[stack_.back()].child_ns += ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::array<Total, kNumLayers>& totals() const { return totals_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
  std::array<Total, kNumLayers> totals_{};
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer, int64_t request = -1)
      : recorder_(recorder) {
    recorder_->Open(layer, request);
  }
  ~ScopedSpan() { recorder_->Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// What a pass produced besides its spans.
struct PassOutput {
  /// Audit passes: the mirrored report bytes.
  std::string mirrored;
  /// Serve passes: (line, mirrored response members) pairs.
  std::vector<std::pair<size_t, std::string>> fragments;
  /// Work counted at layer boundaries.
  Values counts;
};

using PassFn = std::function<Result<PassOutput>(SpanRecorder*)>;
using CheckFn = std::function<Status(const PassOutput&)>;

// ---------------------------------------------------------------------------
// Traced compositions.

/// The serial streaming loop of Auditor::Run(AuditSource::FromCsv).
Result<PassOutput> AuditStreamPass(const std::string& csv,
                                   const audit::AuditConfig& config,
                                   SpanRecorder* rec) {
  FAIRLAW_RETURN_NOT_OK(config.Validate());
  PassOutput out;
  ScopedSpan pass(rec, kPass);
  data::CsvChunkReader::Options reader_options;
  reader_options.chunk_rows =
      config.chunk_rows == 0 ? data::kDefaultChunkRows : config.chunk_rows;
  Result<data::CsvChunkReader> made = [&] {
    ScopedSpan span(rec, kCsvOpen);
    return data::CsvChunkReader::Make(csv, reader_options);
  }();
  FAIRLAW_ASSIGN_OR_RETURN(data::CsvChunkReader reader, std::move(made));
  const std::string parent_path = obs::CurrentPath();
  audit::MergedPartials merged;
  while (true) {
    Result<std::optional<data::Table>> chunk = [&] {
      ScopedSpan span(rec, kCsvNext);
      return reader.Next();
    }();
    FAIRLAW_RETURN_NOT_OK(chunk.status());
    if (!chunk->has_value()) break;
    audit::ChunkPartial partial = [&] {
      ScopedSpan span(rec, kProcessChunk);
      return audit::ProcessChunk(**chunk, config, parent_path);
    }();
    ScopedSpan span(rec, kFold);
    merged.Fold(std::move(partial));
  }
  Result<audit::AuditResult> result = [&] {
    ScopedSpan span(rec, kEvaluate);
    return audit::EvaluateMergedPartials(merged, config, parent_path);
  }();
  FAIRLAW_RETURN_NOT_OK(result.status());
  ScopedSpan span(rec, kReportIo);
  FAIRLAW_ASSIGN_OR_RETURN(out.mirrored, audit::AuditResultToJson(*result));
  return out;
}

/// RunFairnessSuite's sequence over a whole-table read, then the JSON
/// export fairlaw_audit prints.
Result<PassOutput> AuditSuitePass(const std::string& csv,
                                  const SuiteConfig& config,
                                  SpanRecorder* rec) {
  PassOutput out;
  ScopedSpan pass(rec, kPass);
  Result<data::Table> read = [&] {
    ScopedSpan span(rec, kReadCsv);
    return data::ReadCsvFile(csv);
  }();
  FAIRLAW_ASSIGN_OR_RETURN(const data::Table table, std::move(read));
  const audit::AuditConfig& audit_config = config.audit;
  SuiteReport report;
  {
    ScopedSpan span(rec, kRunTable);
    FAIRLAW_ASSIGN_OR_RETURN(
        report.audit, audit::Auditor::Run(audit::AuditSource::FromTable(table),
                                          audit_config));
  }
  report.all_clear = report.audit.all_satisfied;
  if (!config.proxy_candidates.empty()) {
    ScopedSpan span(rec, kProxy);
    FAIRLAW_ASSIGN_OR_RETURN(
        report.proxies,
        audit::DetectProxies(table, audit_config.protected_column,
                             config.proxy_candidates, config.proxy_options));
    for (const audit::ProxyFinding& finding : report.proxies) {
      if (finding.flagged) report.all_clear = false;
    }
  }
  if (!config.subgroup_columns.empty()) {
    ScopedSpan span(rec, kSubgroups);
    FAIRLAW_ASSIGN_OR_RETURN(
        report.subgroups,
        audit::AuditSubgroups(table, config.subgroup_columns,
                              audit_config.prediction_column,
                              config.subgroup_options));
    if (report.subgroups->any_violation) report.all_clear = false;
    out.counts["audit.subgroups.examined"] =
        static_cast<double>(report.subgroups->subgroups_examined);
  }
  Result<metrics::MetricInput> input = [&] {
    ScopedSpan span(rec, kMetricInput);
    return audit::MetricInputFromTable(table, audit_config.protected_column,
                                       audit_config.prediction_column,
                                       audit_config.label_column);
  }();
  FAIRLAW_RETURN_NOT_OK(input.status());
  if (config.check_sampling) {
    ScopedSpan span(rec, kSampling);
    FAIRLAW_ASSIGN_OR_RETURN(
        report.sampling,
        audit::AssessSamplingAdequacy(*input, config.sampling_options));
  }
  if (config.check_four_fifths) {
    ScopedSpan span(rec, kFourFifths);
    FAIRLAW_ASSIGN_OR_RETURN(report.four_fifths, legal::FourFifthsTest(*input));
    if (!report.four_fifths->passed) report.all_clear = false;
  }
  ScopedSpan span(rec, kSuiteJson);
  FAIRLAW_ASSIGN_OR_RETURN(out.mirrored, SuiteReportToJson(report));
  return out;
}

/// Window merges a serve pass made, and how much of them was new.
struct MergeTally {
  double buckets = 0.0;
  double useful = 0.0;
  /// Buckets that received an event since the previous merge (may
  /// repeat; deduplicated at the merge).
  std::vector<int64_t> changed;
};

/// Service::HandleQuery's steps for one query: window, evaluate, write.
/// Returns the members the response frame carries between "type" and
/// "obs".
Result<std::string> MirrorQuery(const serve::QueryRequest& query,
                                const serve::WindowRing& ring, ThreadPool* pool,
                                const audit::AuditConfig& audit_config,
                                int64_t request, SpanRecorder* rec,
                                MergeTally* merges) {
  obs::Counter* merged_buckets = obs::GetCounter("serve.window_merges");
  const uint64_t before = merged_buckets->Value();
  const audit::WindowedPartial window = [&] {
    ScopedSpan span(rec, kWindowMerge, request);
    return ring.Window(pool);
  }();
  merges->buckets += static_cast<double>(merged_buckets->Value() - before);
  std::sort(merges->changed.begin(), merges->changed.end());
  merges->changed.erase(
      std::unique(merges->changed.begin(), merges->changed.end()),
      merges->changed.end());
  for (int64_t bucket : merges->changed) {
    if (bucket >= ring.window_start()) merges->useful += 1.0;
  }
  merges->changed.clear();

  JsonWriter json;
  json.BeginObject();
  json.Key("window");
  json.BeginObject();
  json.Field("start_bucket", ring.window_start());
  json.Field("watermark", ring.watermark());
  json.Field("events", static_cast<int64_t>(ring.num_events()));
  json.EndObject();
  if (query.type == "audit" || query.type == "four_fifths" ||
      query.type == "drift") {
    Result<audit::AuditResult> result = [&] {
      ScopedSpan span(rec, kWindowedEval, request);
      return audit::Auditor::Run(audit::AuditSource::FromWindow(window),
                                 audit_config);
    }();
    FAIRLAW_RETURN_NOT_OK(result.status());
    ScopedSpan span(rec, kReportIo, request);
    if (query.type == "audit") {
      json.Key("findings");
      audit::WriteAuditFindings(&json, *result);
    } else if (query.type == "four_fifths") {
      FAIRLAW_ASSIGN_OR_RETURN(const metrics::MetricReport* report,
                               result->Find("disparate_impact_ratio"));
      json.Key("four_fifths");
      audit::WriteMetricReport(&json, *report);
    } else {
      if (!result->score_distribution.has_value()) {
        return Status::FailedPrecondition("drift: no score distribution");
      }
      json.Key("score_distribution");
      audit::WriteScoreDistributionReport(&json, *result->score_distribution);
    }
  } else if (query.type == "drilldown") {
    const stats::StratifiedCountsAccumulator& strata = window.strata_counts;
    const std::vector<std::string>& keys = strata.keys();
    const auto found = std::find(keys.begin(), keys.end(), query.stratum);
    if (found == keys.end()) {
      return Status::NotFound("drilldown: no stratum '" + query.stratum + "'");
    }
    audit::EvaluateInputs inputs;
    inputs.counts = &strata.stratum(static_cast<size_t>(found - keys.begin()));
    inputs.has_labels = false;
    Result<audit::AuditResult> result = [&] {
      ScopedSpan span(rec, kWindowedEval, request);
      return audit::EvaluateMetrics(inputs, audit_config, obs::CurrentPath());
    }();
    FAIRLAW_RETURN_NOT_OK(result.status());
    json.Field("stratum", query.stratum);
    ScopedSpan span(rec, kReportIo, request);
    json.Key("findings");
    audit::WriteAuditFindings(&json, *result);
  } else {
    const size_t slot = window.sketches.FindKey(query.group);
    if (slot >= window.sketches.num_keys()) {
      return Status::NotFound("quantiles: no group '" + query.group + "'");
    }
    const stats::KllSketch& sketch = window.sketches.sketch(slot);
    std::vector<double> values;
    {
      ScopedSpan span(rec, kKllQuantile, request);
      for (double q : query.quantiles) {
        FAIRLAW_ASSIGN_OR_RETURN(double value, sketch.Quantile(q));
        values.push_back(value);
      }
    }
    json.Field("group", query.group);
    json.Field("count", static_cast<int64_t>(sketch.count()));
    json.Key("quantiles");
    json.BeginArray();
    for (size_t i = 0; i < values.size(); ++i) {
      json.BeginObject();
      json.Field("q", query.quantiles[i]);
      json.Field("value", values[i]);
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
  FAIRLAW_ASSIGN_OR_RETURN(std::string text, json.Finish());
  return text.substr(1, text.size() - 2);
}

/// Service::HandleLine's per-line steps over a whole session: parse,
/// validate, then ingest (per event: validate, fold into the ring) or
/// query (window, evaluate, write). Stats lines are telemetry and skip.
Result<PassOutput> ServePass(const serve::ServeConfig& config,
                             const ServeSession& session, SpanRecorder* rec) {
  PassOutput out;
  serve::WindowRing ring(config);
  std::unique_ptr<ThreadPool> pool;
  if (config.num_threads != 1) {
    pool = std::make_unique<ThreadPool>(config.num_threads);
  }
  const audit::AuditConfig audit_config = config.ToAuditConfig();
  MergeTally merges;
  double bytes = 0.0;
  double accepted_total = 0.0;
  double rejected_total = 0.0;
  ScopedSpan pass(rec, kPass);
  size_t index = 0;
  for (const Phase& phase : session.phases) {
    for (const Line& line : phase.lines) {
      const auto request = static_cast<int64_t>(index);
      if (line.kind == Line::Kind::kStats) {
        ++index;
        continue;
      }
      ScopedSpan handle(rec, kHandleLine, request);
      bytes += static_cast<double>(line.text.size());
      Result<serve::JsonValue> doc = [&] {
        ScopedSpan span(rec, kJsonParse, request);
        return serve::JsonValue::Parse(line.text);
      }();
      FAIRLAW_RETURN_NOT_OK(doc.status());
      Result<serve::Request> parsed = [&] {
        ScopedSpan span(rec, kParseRequest, request);
        return serve::ParseRequest(*doc, config);
      }();
      FAIRLAW_RETURN_NOT_OK(parsed.status());
      if (parsed->op == serve::Request::Op::kIngest) {
        int64_t accepted = 0;
        int64_t rejected = 0;
        int64_t last_bucket = -1;
        for (const serve::Event& event : parsed->ingest.events) {
          uint64_t start = rec->Now();
          Status status = event.Validate(config);
          rec->AddTimed(kEventValidate, start);
          if (status.ok()) {
            start = rec->Now();
            status = ring.Ingest(event);
            rec->AddTimed(kWindowIngest, start);
          }
          if (!status.ok()) {
            ++rejected;
            continue;
          }
          ++accepted;
          const int64_t bucket = event.t / config.bucket_width;
          if (bucket != last_bucket) merges.changed.push_back(bucket);
          last_bucket = bucket;
        }
        accepted_total += static_cast<double>(accepted);
        rejected_total += static_cast<double>(rejected);
        JsonWriter ack;
        ack.BeginObject();
        ack.Field("schema_version", audit::kReportSchemaVersion);
        ack.Field("op", std::string("ingest"));
        ack.Field("accepted", accepted);
        ack.Field("rejected", rejected);
        ack.Field("watermark", ring.watermark());
        ack.EndObject();
        FAIRLAW_ASSIGN_OR_RETURN(std::string text, ack.Finish());
        out.fragments.emplace_back(index, std::move(text));
      } else if (parsed->op == serve::Request::Op::kQuery) {
        FAIRLAW_ASSIGN_OR_RETURN(
            std::string fragment,
            MirrorQuery(parsed->query, ring, pool.get(), audit_config, request,
                        rec, &merges));
        out.fragments.emplace_back(index, std::move(fragment));
      }
      ++index;
    }
  }
  out.counts["serve.json_parse.bytes"] = bytes;
  out.counts["serve.window_ingest.events"] = accepted_total;
  out.counts["serve.window_ingest.rejected"] = rejected_total;
  out.counts["serve.window_merge.buckets"] = merges.buckets;
  out.counts["serve.window_merge.useful_ratio"] =
      SafeDiv(merges.useful, merges.buckets);
  return out;
}

// ---------------------------------------------------------------------------
// Traced and untraced passes, trace file.

Status WriteChromeTrace(const SpanRecorder& rec, const std::string& path) {
  const std::vector<SpanRecorder::Span>& spans = rec.spans();
  if (spans.empty()) return Status::Invalid("no spans recorded");
  const uint64_t base = spans.front().start_ns;
  JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& span = spans[i];
    const uint64_t duration = span.end_ns - span.start_ns;
    json.BeginObject();
    json.Field("name", std::string(kLayerNames[span.layer]));
    json.Field("cat", std::string("fairlaw_bench"));
    json.Field("ph", std::string("X"));
    json.Field("ts", static_cast<double>(span.start_ns - base) / 1e3);
    json.Field("dur", static_cast<double>(duration) / 1e3);
    json.Field("pid", int64_t{1});
    json.Field("tid", int64_t{1});
    json.Key("args");
    json.BeginObject();
    json.Field("span", static_cast<int64_t>(i));
    json.Field("parent", span.parent);
    if (span.request >= 0) json.Field("request", span.request);
    const uint64_t self_ns = duration - std::min(duration, span.child_ns);
    json.Field("self_us", static_cast<double>(self_ns) / 1e3);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Field("displayTimeUnit", std::string("ms"));
  json.EndObject();
  FAIRLAW_ASSIGN_OR_RETURN(std::string text, json.Finish());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text << '\n';
    if (!out) return Status::IOError("cannot write '" + path + "'");
  }
  // Read it back: the file must parse, and every event must be a
  // complete ("X") event with a start and a duration.
  FAIRLAW_ASSIGN_OR_RETURN(std::string written, ReadFile(path));
  FAIRLAW_ASSIGN_OR_RETURN(serve::JsonValue doc,
                           serve::JsonValue::Parse(written));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* events,
                           doc.Get("traceEvents"));
  if (events->size() != spans.size()) {
    return Status::Invalid("trace file holds " +
                           std::to_string(events->size()) + " of " +
                           std::to_string(spans.size()) + " spans");
  }
  for (size_t i = 0; i < events->size(); ++i) {
    const serve::JsonValue& event = events->at(i);
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* ph, event.Get("ph"));
    FAIRLAW_ASSIGN_OR_RETURN(std::string phase, ph->AsString());
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* ts, event.Get("ts"));
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* dur, event.Get("dur"));
    if (phase != "X" || !ts->is_number() || !dur->is_number()) {
      return Status::Invalid("trace event " + std::to_string(i) +
                             " is not a complete event");
    }
  }
  return Status::OK();
}

/// Alternates traced and untraced passes (at least two of each, more
/// while `budget_s` lasts), checks each against the product path, writes
/// the last traced pass to `trace_path`, and fills the layer metrics.
void RunPasses(double budget_s, const PassFn& pass, const CheckFn& check,
               const std::string& trace_path, Values* values,
               WorkloadReport* report) {
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  std::vector<double> coverage;
  std::array<std::vector<double>, kNumLayers> busy;
  std::array<std::vector<double>, kNumLayers> calls;
  SpanRecorder last_traced(true);
  Values counts;
  const uint64_t start = obs::MonotonicNowNs();
  const uint64_t budget = SecondsToNs(budget_s);
  for (size_t round = 0;
       round < 2 || (obs::MonotonicNowNs() - start < budget && round < 20);
       ++round) {
    for (size_t k = 0; k < 2; ++k) {
      const bool traced = (round + k) % 2 == 0;
      SpanRecorder rec(traced);
      const uint64_t begin = obs::MonotonicNowNs();
      Result<PassOutput> out = pass(&rec);
      const double wall = Seconds(obs::MonotonicNowNs() - begin);
      if (!out.ok()) {
        report->Fail(traced ? "traced pass" : "untraced pass", out.status());
        continue;
      }
      const Status same = check(*out);
      report->Count(same.ok(), "mirrored vs product path: " + same.ToString());
      if (!traced) {
        untraced_wall.push_back(wall);
        continue;
      }
      traced_wall.push_back(wall);
      const auto& totals = rec.totals();
      for (size_t layer = 0; layer < kNumLayers; ++layer) {
        busy[layer].push_back(Seconds(totals[layer].busy_ns));
        calls[layer].push_back(static_cast<double>(totals[layer].calls));
      }
      const SpanRecorder::Span& root = rec.spans().front();
      coverage.push_back(SafeDiv(static_cast<double>(root.child_ns),
                                 static_cast<double>(root.end_ns -
                                                     root.start_ns)));
      counts = std::move(out->counts);
      last_traced = std::move(rec);
    }
  }
  for (size_t layer = 1; layer < kNumLayers; ++layer) {
    (*values)[std::string(kLayerNames[layer]) + ".busy_s"] =
        Median(busy[layer]);
  }
  (*values)["data.csv_next.calls"] = Median(calls[kCsvNext]);
  (*values)["audit.process_chunk.calls"] = Median(calls[kProcessChunk]);
  (*values)["serve.window_merge.calls"] = Median(calls[kWindowMerge]);
  for (const auto& [name, value] : counts) (*values)[name] = value;
  const double traced = Median(traced_wall);
  const double untraced = Median(untraced_wall);
  (*values)["bench.traced_wall_s"] = traced;
  (*values)["bench.trace_overhead_pct"] =
      100.0 * SafeDiv(traced - untraced, untraced);
  const double covered = Median(coverage);
  (*values)["bench.span_coverage"] = covered;
  report->Count(covered >= kMinCoverage,
                "layer spans cover only " + std::to_string(covered) +
                    " of the traced wall time");
  const Status written = WriteChromeTrace(last_traced, trace_path);
  report->Count(written.ok(), "trace file: " + written.ToString());
}

// ---------------------------------------------------------------------------
// Workloads.

void TraceAudit(const BenchOptions& options, Workload workload, uint64_t seed,
                const std::string& trace_path, Values* values,
                WorkloadReport* report) {
  Result<AuditInputs> inputs = PrepareAuditInputs(options, workload, seed);
  if (!inputs.ok()) {
    report->Fail("inputs", inputs.status());
    return;
  }
  Result<std::string> warm = ReadFile(inputs->csv);
  report->Count(warm.ok(), "cannot read the input CSV");
  const bool stream = workload == Workload::kAuditStream;
  const std::string& csv = inputs->csv;

  // The e2e leg: one run per thread count, for the scaling ratio and to
  // tie the binary's bytes to the in-process product path.
  Result<Invocation> parallel = RunToCompletion(
      AuditArgv(options, workload, csv, kThreads), kChildTimeoutNs);
  Result<Invocation> serial = RunToCompletion(
      AuditArgv(options, workload, csv, kSerialThreads), kChildTimeoutNs);
  for (const Result<Invocation>* run : {&parallel, &serial}) {
    report->Count(run->ok() && ((*run)->exit.exit_code == 0 ||
                                (*run)->exit.exit_code == 2),
                  "fairlaw_audit run failed");
  }
  if (parallel.ok() && serial.ok()) {
    (*values)["audit.thread_scaling"] =
        SafeDiv(static_cast<double>(serial->wall_ns),
                static_cast<double>(parallel->wall_ns));
  }

  const SuiteConfig config = AuditSuiteConfig(workload, kThreads);
  std::string product;
  std::string binary_expected;
  if (stream) {
    obs::ResetAll();  // audit.rows_audited rides in the envelope
    Result<audit::AuditResult> result = audit::Auditor::Run(
        audit::AuditSource::FromCsv(csv), config.audit);
    if (result.ok()) {
      product = audit::AuditResultToJson(*result).ValueOr("");
      audit::ReportEnvelopeOptions envelope;
      envelope.obs_counters = {"audit.rows_audited"};
      binary_expected =
          audit::AuditResultToJson(*result, envelope).ValueOr("") + "\n";
    } else {
      report->Fail("product path", result.status());
    }
  } else {
    Result<data::Table> table = data::ReadCsvFile(csv);
    Result<SuiteReport> result = table.ok()
                                     ? RunFairnessSuite(*table, config)
                                     : Result<SuiteReport>(table.status());
    if (result.ok()) {
      product = SuiteReportToJson(*result).ValueOr("");
      binary_expected = product + "\n";
    } else {
      report->Fail("product path", result.status());
    }
  }
  report->Count(parallel.ok() && parallel->out == binary_expected,
                "fairlaw_audit output differs from the in-process product "
                "path");

  const SuiteConfig serial_config = AuditSuiteConfig(workload, kSerialThreads);
  const PassFn pass = [&](SpanRecorder* rec) {
    return stream ? AuditStreamPass(csv, serial_config.audit, rec)
                  : AuditSuitePass(csv, config, rec);
  };
  const CheckFn check = [&](const PassOutput& out) {
    return out.mirrored == product && !product.empty()
               ? Status::OK()
               : Status::Invalid("mirrored report differs");
  };
  RunPasses(0.5 * options.seconds, pass, check, trace_path, values, report);
  const double reader =
      stream ? (*values)["data.csv_open.busy_s"] +
                   (*values)["data.csv_next.busy_s"]
             : (*values)["data.read_csv.busy_s"];
  (*values)["audit.reader_share"] =
      SafeDiv(reader, (*values)["bench.traced_wall_s"]);
}

/// The open-loop tail: the highest of p99/p95/p90 with at least ten
/// samples beyond it (the run is too short for a steadier tail to gate).
void RecordTail(const std::vector<double>& latencies, Values* values) {
  const size_t n = latencies.size();
  const double pct = n >= 1000  ? 99.0
                     : n >= 200 ? 95.0
                     : n >= 100 ? 90.0
                                : 50.0;
  (*values)["bench.latency_tail_ms"] = Percentile(latencies, pct);
  (*values)["bench.latency_tail_pct"] = pct;
}

/// Generator lag, backlog, and drain of one paced phase.
struct PacedStats {
  double lag_p99_ms = 0.0;
  double backlog_max = 0.0;
  bool backlog_grows = false;
  double drain_s = 0.0;
};

PacedStats AnalyzePaced(const SessionResult& result,
                        const ServeSession& session, size_t phase) {
  PacedStats stats;
  const size_t first = result.phase_first[phase];
  const size_t n = session.phases[phase].lines.size();
  if (n == 0) return stats;
  std::vector<double> lag;
  std::vector<double> backlog;
  size_t answered = first;
  for (size_t i = first; i < first + n; ++i) {
    lag.push_back(static_cast<double>(result.send_ns[i] - result.due_ns[i]) /
                  1e6);
    // Responses arrive in request order, so the answered prefix only grows.
    while (answered < i && result.arrive_ns[answered] <= result.send_ns[i]) {
      ++answered;
    }
    backlog.push_back(static_cast<double>(i - answered));
  }
  stats.lag_p99_ms = Percentile(lag, 99.0);
  stats.backlog_max = *std::max_element(backlog.begin(), backlog.end());
  const size_t quarter = std::max<size_t>(n / 4, 1);
  const std::vector<double> head(backlog.begin(), backlog.begin() + quarter);
  const std::vector<double> tail(backlog.end() - quarter, backlog.end());
  stats.backlog_grows = Median(tail) > Median(head) + 2.0;
  stats.drain_s = Seconds(result.arrive_ns[first + n - 1] -
                          result.send_ns[first + n - 1]);
  return stats;
}

/// 1 - (the daemon's own request-handling time, from the latency
/// histograms in its stats reply) / (its wall time over the session).
Result<double> ServeIoShare(const SessionResult& result) {
  const std::string& stats = result.responses.back();
  FAIRLAW_ASSIGN_OR_RETURN(serve::JsonValue doc,
                           serve::JsonValue::Parse(stats));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* obs_doc, doc.Get("obs"));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* histograms,
                           obs_doc->Get("histograms"));
  double busy_ns = 0.0;
  for (size_t i = 0; i < histograms->size(); ++i) {
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* name,
                             histograms->at(i).Get("name"));
    FAIRLAW_ASSIGN_OR_RETURN(std::string probe, name->AsString());
    if (probe.rfind("serve.latency.", 0) != 0) continue;
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* sum,
                             histograms->at(i).Get("sum"));
    FAIRLAW_ASSIGN_OR_RETURN(double value, sum->AsDouble());
    busy_ns += value;
  }
  const auto wall_ns = static_cast<double>(result.arrive_ns.back() -
                                           result.send_ns.front());
  return 1.0 - SafeDiv(busy_ns, wall_ns);
}

/// Highest open-loop rung (a fresh daemon each) whose ingest-ack p99
/// stays within 10 ms with a flat backlog and a drain under 1 s.
double SustainedRate(const BenchOptions& options, Workload workload,
                     uint64_t seed, double rung_seconds,
                     WorkloadReport* report) {
  const ServeSpec spec = SpecFor(options, workload);
  double sustained = 0.0;
  for (double factor : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const double rate = factor * options.scale.ingest_rate;
    SessionBuilder builder(spec, seed);
    builder.AddOpenLoop("rung", rate, 64, 1.0, rung_seconds);
    const ServeSession rung = builder.Finish();
    Result<SessionResult> run =
        RunSession(ServeArgv(options, workload, kThreads), rung,
                   kChildTimeoutNs);
    if (!run.ok()) {
      report->Fail("ladder rung", run.status());
      break;
    }
    const PacedStats paced = AnalyzePaced(*run, rung, 0);
    const double p99 =
        Percentile(PacedLatenciesMs(*run, rung, 0, Line::Kind::kIngest), 99.0);
    if (p99 > 10.0 || paced.backlog_grows || paced.drain_s > 1.0) break;
    sustained = rate;
  }
  return sustained;
}

void TraceServe(const BenchOptions& options, Workload workload, uint64_t seed,
                const std::string& trace_path, Values* values,
                WorkloadReport* report) {
  const ServeSpec spec = SpecFor(options, workload);
  const Scale& scale = options.scale;
  const bool ingest = workload == Workload::kServeIngest;
  // The session both the daemon and the traced passes play: a
  // closed-loop phase (the saturation replay, or the window prefill
  // followed by a short open-loop query mix), then the closing
  // four_fifths check and a stats request.
  SessionBuilder builder(spec, seed);
  if (ingest) {
    builder.AddIngest("saturation", scale.saturation_events, 256);
  } else {
    builder.AddIngest("prefill",
                      spec.window_buckets *
                          static_cast<size_t>(spec.bucket_width),
                      256);
    builder.AddOpenLoop("open_loop", scale.query_event_rate, 64,
                        scale.query_rate,
                        std::max(0.5, 0.25 * options.seconds));
  }
  builder.AddSingle("final", Line::Kind::kQuery, kFourFifthsLine);
  builder.AddSingle("stats", Line::Kind::kStats, kStatsLine);
  const ServeSession session = builder.Finish();

  const serve::ServeConfig config = ServeConfigFor(options, workload, kThreads);
  const Replay replay = ReplayInProcess(config, session);
  const std::vector<std::string>& product = replay.responses;

  Result<SessionResult> parallel = RunSession(
      ServeArgv(options, workload, kThreads), session, kChildTimeoutNs);
  if (parallel.ok()) {
    CheckSession(session, *parallel, product, "threads=4 session", report);
    if (ingest) {
      // Closed loop only: an open-loop session's idle waits are not I/O.
      Result<double> share = ServeIoShare(*parallel);
      report->Count(share.ok(), "stats reply: " + share.status().ToString());
      (*values)["tools.serve_io.share"] = share.ValueOr(0.0);
    }
    (*values)["serve.e2e_over_inprocess"] =
        SafeDiv(PhaseSeconds(*parallel, session, 0), replay.phase_seconds[0]);
    if (!ingest) {
      const PacedStats paced = AnalyzePaced(*parallel, session, 1);
      (*values)["bench.generator_lag_p99_ms"] = paced.lag_p99_ms;
      (*values)["bench.backlog_max_lines"] = paced.backlog_max;
      RecordTail(PacedLatenciesMs(*parallel, session, 1, Line::Kind::kQuery),
                 values);
    }
  } else {
    report->Fail("threads=4 session", parallel.status());
  }

  if (ingest) {
    Result<SessionResult> serial = RunSession(
        ServeArgv(options, workload, kSerialThreads), session, kChildTimeoutNs);
    if (serial.ok() && parallel.ok()) {
      CheckSession(session, *serial, product, "threads=1 session", report);
      (*values)["serve.thread_penalty"] =
          SafeDiv(PhaseSeconds(*parallel, session, 0),
                  PhaseSeconds(*serial, session, 0));
    } else if (!serial.ok()) {
      report->Fail("threads=1 session", serial.status());
    }
    SessionBuilder open_builder(spec, seed);
    open_builder.AddOpenLoop("open_loop", scale.ingest_rate, 64, 1.0,
                             std::max(0.5, 0.25 * options.seconds));
    const ServeSession open_loop = open_builder.Finish();
    Result<SessionResult> open_run = RunSession(
        ServeArgv(options, workload, kThreads), open_loop, kChildTimeoutNs);
    if (open_run.ok()) {
      const PacedStats paced = AnalyzePaced(*open_run, open_loop, 0);
      (*values)["bench.generator_lag_p99_ms"] = paced.lag_p99_ms;
      (*values)["bench.backlog_max_lines"] = paced.backlog_max;
      RecordTail(
          PacedLatenciesMs(*open_run, open_loop, 0, Line::Kind::kIngest),
          values);
    } else {
      report->Fail("open loop", open_run.status());
    }
    (*values)["bench.sustained_events_per_s"] = SustainedRate(
        options, workload, seed, std::max(0.3, 0.1 * options.seconds), report);
  }

  const PassFn pass = [&](SpanRecorder* rec) {
    return ServePass(config, session, rec);
  };
  const CheckFn check = [&](const PassOutput& out) -> Status {
    if (out.fragments.empty()) return Status::Invalid("no mirrored responses");
    for (const auto& [line, fragment] : out.fragments) {
      if (line >= product.size() ||
          product[line].find(fragment) == std::string::npos) {
        return Status::Invalid("line " + std::to_string(line) +
                               ": mirrored response differs");
      }
    }
    return Status::OK();
  };
  RunPasses(0.35 * options.seconds, pass, check, trace_path, values, report);
}

}  // namespace

WorkloadReport TraceWorkload(const BenchOptions& options, Workload workload,
                             uint64_t seed, const std::string& trace_path) {
  WorkloadReport report;
  report.workload = WorkloadName(workload);
  report.seed = seed;
  Values values;
  if (workload == Workload::kAuditStream || workload == Workload::kAuditSuite) {
    TraceAudit(options, workload, seed, trace_path, &values, &report);
  } else {
    TraceServe(options, workload, seed, trace_path, &values, &report);
  }
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto it = values.find(metric.name);
    report.Add(metric.name, it == values.end() ? 0.0 : it->second, metric.unit,
               1);
  }
  return report;
}

}  // namespace fairlaw::bench
