// Tests for the fairlaw_serve daemon layers (src/serve/): the
// line-JSON parser, the versioned request schema, the window ring's
// event-time semantics, and the daemon's central contract — query
// responses byte-identical across ingest batch boundaries and thread
// counts — plus the unified Auditor::Run entry over window sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "audit/auditor.h"
#include "audit/report_io.h"
#include "audit/source.h"
#include "audit/windowed.h"
#include "base/json_writer.h"
#include "base/thread_pool.h"
#include "data/csv.h"
#include "obs/obs.h"
#include "serve/api.h"
#include "serve/json_value.h"
#include "serve/service.h"
#include "serve/window.h"
#include "stats/distance.h"
#include "stats/kll.h"
#include "stats/mergeable.h"
#include "stats/rng.h"

namespace fairlaw {
namespace {

using serve::Event;
using serve::JsonValue;
using serve::ParseRequest;
using serve::Request;
using serve::ServeConfig;
using serve::Service;
using serve::WindowRing;
using stats::Rng;

TEST(JsonValueTest, ParsesScalarsObjectsArrays) {
  Result<JsonValue> doc = JsonValue::Parse(
      R"({"a":1,"b":-2.5e2,"c":"x\n\"y\"","d":[true,false,null],"e":{}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(*(*doc->Get("a"))->AsInt64(), 1);
  EXPECT_DOUBLE_EQ(*(*doc->Get("b"))->AsDouble(), -250.0);
  EXPECT_EQ(*(*doc->Get("c"))->AsString(), "x\n\"y\"");
  const JsonValue* array = *doc->Get("d");
  ASSERT_TRUE(array->is_array());
  ASSERT_EQ(array->size(), 3u);
  EXPECT_TRUE(*array->at(0).AsBool());
  EXPECT_TRUE(array->at(2).is_null());
  EXPECT_TRUE((*doc->Get("e"))->is_object());
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "{}extra", "nul",
        "\"unterminated", "{\"a\":01}", "[1 2]", "\"bad\\escape\""}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << bad;
  }
  // Integer vs double typing: 1e3 is a number but not integral.
  Result<JsonValue> doc = JsonValue::Parse("[1, 1e3, 2.0]");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->at(0).AsInt64().ok());
  EXPECT_FALSE(doc->at(1).AsInt64().ok());
  EXPECT_TRUE(doc->at(1).AsDouble().ok());
  EXPECT_FALSE(doc->at(2).AsInt64().ok());
}

TEST(ServeApiTest, ConfigValidation) {
  ServeConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.bucket_width = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = ServeConfig{};
  config.with_scores = true;
  config.with_labels = false;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ServeApiTest, RequestParsingAndSchemaVersion) {
  ServeConfig config;
  config.with_strata = false;

  auto parse = [&config](const std::string& line) {
    Result<JsonValue> doc = JsonValue::Parse(line);
    EXPECT_TRUE(doc.ok()) << line;
    return ParseRequest(*doc, config);
  };

  Result<Request> ingest = parse(
      R"({"op":"ingest","events":[{"t":5,"group":"a","pred":1,"label":0,)"
      R"("score":0.25}]})");
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  ASSERT_EQ(ingest->ingest.events.size(), 1u);
  EXPECT_TRUE(ingest->ingest.events[0].Validate(config).ok());

  // Schema from the future => NotImplemented, not a half-parse.
  Result<Request> future =
      parse(R"({"schema_version":99,"op":"ingest","events":[]})");
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.status().code(), StatusCode::kNotImplemented);

  // Current version is accepted explicitly.
  EXPECT_TRUE(parse(R"({"schema_version":2,"op":"stats"})").ok());

  // Unknown op / unknown query type / capability mismatches.
  EXPECT_FALSE(parse(R"({"op":"explode"})").ok());
  EXPECT_FALSE(parse(R"({"op":"query","type":"nope"})").ok());
  EXPECT_FALSE(parse(R"({"op":"query","type":"drilldown"})").ok());
  EXPECT_FALSE(
      parse(R"({"op":"query","type":"quantiles","group":"a"})").ok());
  EXPECT_TRUE(parse(
      R"({"op":"query","type":"quantiles","group":"a","q":[0.5]})").ok());
  EXPECT_FALSE(parse(
      R"({"op":"query","type":"quantiles","group":"a","q":[1.5]})").ok());

  // Event schema mismatches are caught by Event::Validate.
  Result<Request> no_label =
      parse(R"({"op":"ingest","events":[{"t":1,"group":"a","pred":0,)"
            R"("score":0.5}]})");
  ASSERT_TRUE(no_label.ok());
  EXPECT_FALSE(no_label->ingest.events[0].Validate(config).ok());
}

Event MakeEvent(int64_t t, const std::string& group, int pred, int label,
                double score) {
  Event event;
  event.t = t;
  event.group = group;
  event.pred = pred;
  event.label = label;
  event.has_label = true;
  event.score = score;
  event.has_score = true;
  return event;
}

TEST(WindowRingTest, EventTimeWindowAndOldEventRejection) {
  ServeConfig config;
  config.bucket_width = 10;
  config.num_buckets = 3;
  ASSERT_TRUE(config.Validate().ok());
  WindowRing ring(config);
  EXPECT_EQ(ring.watermark(), -1);

  ASSERT_TRUE(ring.Ingest(MakeEvent(0, "a", 1, 1, 0.5)).ok());
  ASSERT_TRUE(ring.Ingest(MakeEvent(25, "a", 0, 0, 0.4)).ok());
  EXPECT_EQ(ring.watermark(), 2);
  EXPECT_EQ(ring.num_events(), 2u);

  // Advancing to bucket 4 slides buckets {0,1} out: the window is now
  // {2,3,4} and events for bucket <= 1 are rejected as too old.
  ASSERT_TRUE(ring.Ingest(MakeEvent(45, "b", 1, 0, 0.6)).ok());
  EXPECT_EQ(ring.watermark(), 4);
  EXPECT_EQ(ring.window_start(), 2);
  EXPECT_EQ(ring.num_events(), 2u);  // the t=0 event slid out
  Status too_old = ring.Ingest(MakeEvent(5, "a", 1, 1, 0.2));
  EXPECT_FALSE(too_old.ok());
  EXPECT_EQ(too_old.code(), StatusCode::kOutOfRange);
  // Late but still inside the window is fine.
  EXPECT_TRUE(ring.Ingest(MakeEvent(29, "b", 0, 1, 0.7)).ok());

  // A jump far past the ring resets every slot.
  ASSERT_TRUE(ring.Ingest(MakeEvent(1000, "a", 1, 1, 0.9)).ok());
  EXPECT_EQ(ring.num_events(), 1u);
}

TEST(WindowRingTest, WindowMergeIsThreadCountInvariant) {
  ServeConfig config;
  config.bucket_width = 10;
  config.num_buckets = 16;
  WindowRing ring(config);
  Rng rng(23);
  const char* groups[] = {"a", "b", "c", "d", "e"};
  for (int64_t i = 0; i < 5000; ++i) {
    const size_t g = rng.UniformInt(5);
    ASSERT_TRUE(ring.Ingest(MakeEvent(i / 32, groups[g],
                                      rng.Bernoulli(0.5) ? 1 : 0,
                                      rng.Bernoulli(0.5) ? 1 : 0,
                                      rng.Uniform()))
                    .ok());
  }
  const audit::WindowedPartial serial = ring.Window(nullptr);
  ThreadPool pool4(4);
  ThreadPool pool7(7);
  const audit::WindowedPartial par4 = ring.Window(&pool4);
  const audit::WindowedPartial par7 = ring.Window(&pool7);
  EXPECT_TRUE(serial.sketches == par4.sketches);
  EXPECT_TRUE(serial.sketches == par7.sketches);
  EXPECT_EQ(serial.num_rows, par4.num_rows);
}

// RunWindowedAudit builds each group's "rest" sketch from a shared
// prefix of the groups before it. Its W1/KS must equal, exactly, each
// group against the rest as defined: every other group's sketch merged
// into an empty sketch in key order.
TEST(WindowedAuditTest, SketchDriftEqualsNaiveRestRebuild) {
  ServeConfig config;
  config.bucket_width = 10;
  config.num_buckets = 16;
  config.sketch_k = 24;  // small, so the rest merges compact
  WindowRing ring(config);
  Rng rng(29);
  const char* groups[] = {"a", "b", "c", "d", "e", "f", "g"};
  for (int64_t i = 0; i < 6000; ++i) {
    const size_t g = rng.UniformInt(7);
    ASSERT_TRUE(ring.Ingest(MakeEvent(i / 40, groups[g],
                                      rng.Bernoulli(0.5) ? 1 : 0,
                                      rng.Bernoulli(0.5) ? 1 : 0,
                                      rng.Uniform() * (1.0 + 0.1 * g)))
                    .ok());
  }
  const audit::WindowedPartial window = ring.Window(nullptr);
  Result<audit::AuditResult> result =
      audit::RunWindowedAudit(window, config.ToAuditConfig(), "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->score_distribution.has_value());
  const audit::ScoreDistributionReport& report = *result->score_distribution;
  const stats::GroupedSketches& sketches = window.sketches;
  ASSERT_EQ(report.groups.size(), sketches.num_keys());
  ASSERT_EQ(sketches.num_keys(), 7u);
  for (size_t g = 0; g < sketches.num_keys(); ++g) {
    stats::KllSketch rest = sketches.prototype();
    for (size_t j = 0; j < sketches.num_keys(); ++j) {
      if (j != g) rest.Merge(sketches.sketch(j));
    }
    const stats::KllSketch& mine = sketches.sketch(g);
    EXPECT_EQ(report.groups[g].group, sketches.keys()[g]);
    EXPECT_EQ(report.groups[g].wasserstein1,
              *stats::Wasserstein1Sketch(mine, rest))
        << "group " << sketches.keys()[g];
    EXPECT_EQ(report.groups[g].ks, *stats::KolmogorovSmirnovSketch(mine, rest))
        << "group " << sketches.keys()[g];
  }
}

/// Replays one request stream through a fresh Service and returns the
/// responses.
std::vector<std::string> Replay(const ServeConfig& config,
                                const std::vector<std::string>& lines) {
  Service service(config);
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  for (const std::string& line : lines) {
    responses.push_back(service.HandleLine(line));
  }
  return responses;
}

/// The generator mirror of tools/fairlaw_generate --events-jsonl, in
/// miniature: same event sequence, batched at `batch` events per ingest
/// line, the query suite after every `query_every` events. A nonzero
/// `jitter` moves one event in five up to jitter-1 units back in t, so
/// those arrive out of order (some too late for the window), and gives
/// every event a stratum.
std::vector<std::string> MakeStream(size_t n, size_t batch,
                                    size_t query_every, uint64_t seed,
                                    size_t jitter = 0) {
  Rng rng(seed);
  const char* groups[] = {"alpha", "beta", "gamma"};
  const double pred_rate[] = {0.5, 0.35, 0.44};
  std::vector<std::string> lines;
  std::string current;
  size_t in_batch = 0;
  auto flush = [&]() {
    if (in_batch == 0) return;
    lines.push_back("{\"op\":\"ingest\",\"events\":[" + current + "]}");
    current.clear();
    in_batch = 0;
  };
  auto queries = [&]() {
    flush();
    lines.push_back(R"({"op":"query","type":"audit"})");
    lines.push_back(R"({"op":"query","type":"four_fifths"})");
    lines.push_back(R"({"op":"query","type":"drift"})");
    lines.push_back(
        R"({"op":"query","type":"quantiles","group":"alpha","q":[0.5,0.9]})");
  };
  for (size_t i = 0; i < n; ++i) {
    const size_t g = static_cast<size_t>(rng.UniformInt(3));
    const int pred = rng.Bernoulli(pred_rate[g]) ? 1 : 0;
    const int label = rng.Bernoulli(0.42) ? 1 : 0;
    // Scores as exact six-digit decimal text, so every replay parses
    // bit-identical doubles.
    std::string mil = std::to_string(rng.UniformInt(1000000));
    mil.insert(0, 6 - mil.size(), '0');
    size_t t = i * 3;
    std::string stratum;
    if (jitter > 0) {
      if (rng.Bernoulli(0.2)) {
        t -= std::min(t, static_cast<size_t>(rng.UniformInt(jitter)));
      }
      stratum = ",\"stratum\":\"s" + std::to_string(rng.UniformInt(4)) + "\"";
    }
    if (in_batch > 0) current += ",";
    current += "{\"t\":" + std::to_string(t) + ",\"group\":\"" +
               groups[g] + "\",\"pred\":" + std::to_string(pred) +
               ",\"label\":" + std::to_string(label) + ",\"score\":0." +
               mil + stratum + "}";
    ++in_batch;
    if (in_batch == batch) flush();
    if (query_every > 0 && (i + 1) % query_every == 0) queries();
  }
  flush();
  queries();
  return lines;
}

std::vector<std::string> QueryLines(const std::vector<std::string>& lines) {
  std::vector<std::string> result;
  for (const std::string& line : lines) {
    if (line.find("\"op\":\"query\"") != std::string::npos) {
      result.push_back(line);
    }
  }
  return result;
}

TEST(ServeServiceTest, QueryResponsesAreBatchBoundaryInvariant) {
  ServeConfig config;
  config.bucket_width = 50;
  config.num_buckets = 32;
  ASSERT_TRUE(config.Validate().ok());

  // Same event/query sequence, three very different batchings.
  const std::vector<std::string> a = MakeStream(3000, 1000, 1000, 31);
  const std::vector<std::string> b = MakeStream(3000, 7, 1000, 31);
  const std::vector<std::string> c = MakeStream(3000, 311, 1000, 31);

  const std::vector<std::string> ra = QueryLines(Replay(config, a));
  const std::vector<std::string> rb = QueryLines(Replay(config, b));
  const std::vector<std::string> rc = QueryLines(Replay(config, c));

  ASSERT_EQ(ra.size(), 16u);  // 4 query types x (3 mid-stream + 1 final)
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(ra, rc);
  // The responses actually carry findings, not errors.
  EXPECT_NE(ra[0].find("\"findings\""), std::string::npos);
  EXPECT_NE(ra[2].find("\"approximate\":true"), std::string::npos);
}

TEST(ServeServiceTest, QueryResponsesAreThreadCountInvariant) {
  const std::vector<std::string> stream = MakeStream(2000, 128, 0, 37);
  ServeConfig config;
  config.bucket_width = 50;
  config.num_buckets = 32;

  config.num_threads = 1;
  const std::vector<std::string> serial = QueryLines(Replay(config, stream));
  config.num_threads = 4;
  const std::vector<std::string> par = QueryLines(Replay(config, stream));
  config.num_threads = 0;  // one per hardware thread
  const std::vector<std::string> hw = QueryLines(Replay(config, stream));

  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, par);
  EXPECT_EQ(serial, hw);
}

// Query frames embed event and merge counts. They must come from the
// service itself: the process-global obs counters read 0 under the kill
// switch and also count every other Service in the process.
TEST(ServeServiceTest, QueryResponsesIgnoreObsStateAndOtherServices) {
  const std::vector<std::string> stream = MakeStream(1500, 64, 500, 41);
  ServeConfig config;
  config.bucket_width = 50;
  config.num_buckets = 32;
  const std::vector<std::string> baseline = QueryLines(Replay(config, stream));
  ASSERT_FALSE(baseline.empty());
  EXPECT_NE(baseline.back().find("\"serve.events_ingested\":1500"),
            std::string::npos);

  // A replay after other activity in the process sees only its own.
  EXPECT_EQ(QueryLines(Replay(config, stream)), baseline);

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  const std::vector<std::string> killed = QueryLines(Replay(config, stream));
  obs::SetEnabled(was_enabled);
  EXPECT_EQ(killed, baseline);
}

TEST(ServeServiceTest, ErrorEnvelopesAndStats) {
  ServeConfig config;
  Service service(config);

  // Unparseable line => op "error" envelope with the version header.
  const std::string bad = service.HandleLine("not json at all");
  EXPECT_NE(bad.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(bad.find("\"op\":\"error\""), std::string::npos);
  EXPECT_NE(bad.find("\"error\":{"), std::string::npos);

  // Recognized-but-unanswerable query keeps "op":"query" (it must be
  // identical across batchings, so it participates in the identity
  // comparison) — here: empty window.
  const std::string empty =
      service.HandleLine(R"({"op":"query","type":"audit"})");
  EXPECT_NE(empty.find("\"op\":\"query\""), std::string::npos);
  EXPECT_NE(empty.find("\"error\":{"), std::string::npos);

  // Unknown group for quantiles.
  ASSERT_NE(service
                .HandleLine(R"({"op":"ingest","events":[{"t":1,)"
                            R"("group":"a","pred":1,"label":1,)"
                            R"("score":0.5}]})")
                .find("\"accepted\":1"),
            std::string::npos);
  const std::string missing = service.HandleLine(
      R"({"op":"query","type":"quantiles","group":"zzz","q":[0.5]})");
  EXPECT_NE(missing.find("\"op\":\"query\""), std::string::npos);
  EXPECT_NE(missing.find("not found"), std::string::npos);

  // Stats carries the full obs export.
  const std::string stats = service.HandleLine(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("serve.requests"), std::string::npos);
}

TEST(ServeServiceTest, IngestAckCountsRejections) {
  ServeConfig config;
  config.bucket_width = 10;
  config.num_buckets = 2;
  Service service(config);

  // Second event is stale (bucket 0 after watermark jumps to 9), third
  // fails schema validation (missing label/score).
  const std::string ack = service.HandleLine(
      R"({"op":"ingest","events":[)"
      R"({"t":95,"group":"a","pred":1,"label":1,"score":0.5},)"
      R"({"t":5,"group":"a","pred":0,"label":0,"score":0.4},)"
      R"({"t":96,"group":"a","pred":1}]})");
  EXPECT_NE(ack.find("\"accepted\":1"), std::string::npos);
  EXPECT_NE(ack.find("\"rejected\":2"), std::string::npos);
  EXPECT_NE(ack.find("\"watermark\":9"), std::string::npos);
}

/// One event per row: group, pred, label and stratum columns.
data::Table EventTable(const std::vector<Event>& events) {
  std::string csv = "group,pred,label,stratum\n";
  for (const Event& event : events) {
    csv += event.group + "," + std::to_string(event.pred) + "," +
           std::to_string(event.label) + "," + event.stratum + "\n";
  }
  return data::ReadCsvString(csv).ValueOrDie();
}

template <typename Report>
std::vector<std::string> ReportsJson(const std::vector<Report>& reports) {
  std::vector<std::string> out;
  for (const Report& report : reports) {
    JsonWriter json;
    if constexpr (std::is_same_v<Report, metrics::MetricReport>) {
      audit::WriteMetricReport(&json, report);
    } else {
      audit::WriteConditionalReport(&json, report);
    }
    out.push_back(json.Finish().ValueOrDie());
  }
  return out;
}

std::string FindingsJson(const audit::AuditResult& result) {
  JsonWriter json;
  audit::WriteAuditFindings(&json, result);
  return json.Finish().ValueOrDie();
}

/// The sketch error bounds bench_micro_serve gates on: quantile rank
/// error against the exact in-window CDF, and sketch-vs-exact KS/W1.
constexpr double kQuantileRankErrBound = 0.025;
constexpr double kDistanceErrBound = 0.03;

// Windowed vs batch: the window's exact tallies must give the same
// metric and conditional reports as the batch audit of the events still
// in the window, and every drill-down the batch audit of that stratum's
// rows. The sketch answers (quantiles, drift) must lie within the sketch
// error bounds of the exact in-window scores; each group holds about 600
// in-window scores, three times the sketch k, so its sketch compacts.
// Events arrive out of order; some are too late to enter and some slide
// out again. The table orders the in-window events stably by bucket, the
// order the window folds its buckets in, which fixes the first-seen
// order of groups and strata.
TEST(WindowedAuditTest, WindowMatchesBatchAuditOfItsEvents) {
  ServeConfig config;
  config.bucket_width = 400;
  config.num_buckets = 16;
  config.with_strata = true;
  const audit::AuditConfig window_config = config.ToAuditConfig();
  // The batch side skips the score paths: the window has no calibration
  // and only sketch drift, which is checked against the exact scores
  // instead.
  audit::AuditConfig batch_config = window_config;
  batch_config.score_column.clear();
  batch_config.audit_score_distribution = false;
  // A drill-down runs the prediction-only family within one stratum.
  audit::AuditConfig stratum_config = batch_config;
  stratum_config.label_column.clear();
  stratum_config.strata_columns.clear();

  for (uint64_t seed : {43u, 47u, 59u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WindowRing ring(config);
    Service service(config);
    size_t num_events = 0;
    std::vector<Event> accepted;
    for (const std::string& line : MakeStream(3000, 97, 0, seed, 8000)) {
      service.HandleLine(line);
      Result<Request> request =
          ParseRequest(JsonValue::Parse(line).ValueOrDie(), config);
      ASSERT_TRUE(request.ok()) << request.status().ToString();
      if (request->op != Request::Op::kIngest) continue;
      for (const Event& event : request->ingest.events) {
        ++num_events;
        if (ring.Ingest(event).ok()) accepted.push_back(event);
      }
    }
    auto bucket = [&config](const Event& event) {
      return event.t / config.bucket_width;
    };
    std::vector<Event> in_window;
    for (const Event& event : accepted) {
      if (bucket(event) >= ring.window_start()) in_window.push_back(event);
    }
    std::stable_sort(in_window.begin(), in_window.end(),
                     [&bucket](const Event& a, const Event& b) {
                       return bucket(a) < bucket(b);
                     });
    ASSERT_LT(accepted.size(), num_events) << "no event arrived too late";
    ASSERT_LT(in_window.size(), accepted.size()) << "no event slid out";
    ASSERT_EQ(in_window.size(), ring.num_events());

    const audit::WindowedPartial window = ring.Window(nullptr);
    Result<audit::AuditResult> windowed = audit::Auditor::Run(
        audit::AuditSource::FromWindow(window), window_config);
    ASSERT_TRUE(windowed.ok()) << windowed.status().ToString();
    const data::Table table = EventTable(in_window);
    Result<audit::AuditResult> batch = audit::Auditor::Run(
        audit::AuditSource::FromTable(table), batch_config);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_FALSE(windowed->conditional_reports.empty());
    EXPECT_EQ(ReportsJson(windowed->reports), ReportsJson(batch->reports));
    EXPECT_EQ(ReportsJson(windowed->conditional_reports),
              ReportsJson(batch->conditional_reports));

    ASSERT_EQ(window.strata_counts.num_keys(), 4u);
    for (const std::string& stratum : window.strata_counts.keys()) {
      std::vector<Event> rows;
      for (const Event& event : in_window) {
        if (event.stratum == stratum) rows.push_back(event);
      }
      const data::Table stratum_table = EventTable(rows);
      Result<audit::AuditResult> expected = audit::Auditor::Run(
          audit::AuditSource::FromTable(stratum_table), stratum_config);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      const std::string response = service.HandleLine(
          R"({"op":"query","type":"drilldown","stratum":")" + stratum +
          R"("})");
      EXPECT_NE(response.find("\"findings\":" + FindingsJson(*expected) + ","),
                std::string::npos)
          << stratum << ": " << response;
    }

    auto number = [](const JsonValue& object, const char* key) {
      return object.Get(key).ValueOrDie()->AsDouble().ValueOrDie();
    };
    const JsonValue drift =
        JsonValue::Parse(service.HandleLine(R"({"op":"query","type":"drift"})"))
            .ValueOrDie();
    const JsonValue& drift_groups = *drift.Get("score_distribution")
                                         .ValueOrDie()
                                         ->Get("groups")
                                         .ValueOrDie();
    const std::vector<std::string>& groups = window.sketches.keys();
    ASSERT_EQ(groups.size(), 3u);
    ASSERT_EQ(drift_groups.size(), groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      SCOPED_TRACE(groups[g]);
      std::vector<double> mine;
      std::vector<double> rest;
      for (const Event& event : in_window) {
        (event.group == groups[g] ? mine : rest).push_back(event.score);
      }
      std::sort(mine.begin(), mine.end());
      const JsonValue quantiles =
          JsonValue::Parse(service.HandleLine(
                               R"({"op":"query","type":"quantiles","group":")" +
                               groups[g] + R"(","q":[0.1,0.5,0.9]})"))
              .ValueOrDie();
      const JsonValue& answers = *quantiles.Get("quantiles").ValueOrDie();
      ASSERT_EQ(answers.size(), 3u);
      for (size_t i = 0; i < answers.size(); ++i) {
        const double q = number(answers.at(i), "q");
        const double below = static_cast<double>(
            std::upper_bound(mine.begin(), mine.end(),
                             number(answers.at(i), "value")) -
            mine.begin());
        EXPECT_LE(std::abs(below / static_cast<double>(mine.size()) - q),
                  kQuantileRankErrBound)
            << "q=" << q;
      }
      const JsonValue& distance = drift_groups.at(g);
      ASSERT_EQ(distance.Get("group").ValueOrDie()->AsString().ValueOrDie(),
                groups[g]);
      EXPECT_NEAR(number(distance, "wasserstein1"),
                  stats::Wasserstein1Samples(mine, rest).ValueOrDie(),
                  kDistanceErrBound);
      EXPECT_NEAR(number(distance, "ks"),
                  stats::KolmogorovSmirnov(mine, rest).ValueOrDie(),
                  kDistanceErrBound);
    }
  }
}

TEST(AuditorRunTest, WindowSourceMatchesServiceFindings) {
  // The unified entry point over a window source is exactly what the
  // service serves: build the same window by hand, run Auditor::Run,
  // and the audit query's findings must embed its serialized report.
  ServeConfig config;
  config.bucket_width = 50;
  config.num_buckets = 32;

  const std::vector<std::string> stream = MakeStream(1500, 100, 0, 41);
  Service service(config);
  std::string audit_response;
  for (const std::string& line : stream) {
    const std::string response = service.HandleLine(line);
    if (line.find("\"type\":\"audit\"") != std::string::npos) {
      audit_response = response;
    }
  }
  ASSERT_FALSE(audit_response.empty());

  const audit::WindowedPartial window = service.ring().Window(nullptr);
  Result<audit::AuditResult> result = audit::Auditor::Run(
      audit::AuditSource::FromWindow(window), config.ToAuditConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  JsonWriter json;
  audit::WriteAuditFindings(&json, *result);
  Result<std::string> findings = json.Finish();
  ASSERT_TRUE(findings.ok());
  EXPECT_NE(audit_response.find("\"findings\":" + *findings),
            std::string::npos)
      << "service audit response must embed the exact findings object "
         "Auditor::Run produces over the same window";
}

}  // namespace
}  // namespace fairlaw
