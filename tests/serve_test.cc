// Tests for the fairlaw_serve daemon layers (src/serve/): the
// line-JSON parser, the versioned request schema, the window ring's
// event-time semantics, and the daemon's central contract — query
// responses byte-identical across ingest batch boundaries and thread
// counts — plus the unified Auditor::Run entry over window sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
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
#include "support/ingest_oracle.h"

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

// With bucket width 1 an event at INT64_MAX lands in bucket INT64_MAX: the
// window's bucket walks must stop there rather than step past it.
TEST(ServeServiceTest, EventInTheLastInt64BucketIsServed) {
  ServeConfig config;
  config.bucket_width = 1;
  config.num_buckets = 4;
  Service service(config);

  const std::string ack = service.HandleLine(
      R"({"op":"ingest","events":[{"t":9223372036854775807,"group":"a",)"
      R"("pred":1,"label":1,"score":0.5}]})");
  EXPECT_NE(ack.find("\"accepted\":1"), std::string::npos) << ack;
  EXPECT_NE(ack.find("\"watermark\":9223372036854775807"), std::string::npos);
  const std::string one_group =
      service.HandleLine(R"({"op":"query","type":"audit"})");
  EXPECT_NE(one_group.find("\"op\":\"query\""), std::string::npos)
      << one_group;
  EXPECT_NE(one_group.find("\"start_bucket\":9223372036854775804,"
                           "\"watermark\":9223372036854775807,"
                           "\"events\":1"),
            std::string::npos)
      << one_group;

  // A second group in the buckets just below: three live buckets, and
  // every group has both labels and both predictions, so the audit runs.
  ASSERT_NE(service
                .HandleLine(R"({"op":"ingest","events":[)"
                            R"({"t":9223372036854775806,"group":"a",)"
                            R"("pred":0,"label":0,"score":0.5},)"
                            R"({"t":9223372036854775806,"group":"b",)"
                            R"("pred":0,"label":1,"score":0.25},)"
                            R"({"t":9223372036854775805,"group":"b",)"
                            R"("pred":1,"label":0,"score":0.75}]})")
                .find("\"accepted\":3"),
            std::string::npos);
  EXPECT_EQ(service.ring().num_live_buckets(), 3u);
  const std::string audit =
      service.HandleLine(R"({"op":"query","type":"audit"})");
  EXPECT_NE(audit.find("\"op\":\"query\""), std::string::npos) << audit;
  EXPECT_NE(audit.find("\"events\":4"), std::string::npos) << audit;
  EXPECT_EQ(audit.find("\"error\""), std::string::npos) << audit;
}

/// A query frame without its trailing "obs" member, the one part that
/// depends on the queries answered before it.
std::string WithoutObs(const std::string& frame) {
  const size_t at = frame.find(",\"obs\":{");
  return at == std::string::npos ? frame : frame.substr(0, at) + "}";
}

/// The frame's serve.window_merges value, or -1 when it has none.
int64_t FrameWindowMerges(const std::string& frame) {
  const std::string key = "\"serve.window_merges\":";
  const size_t at = frame.find(key);
  if (at == std::string::npos) return -1;
  int64_t value = -1;
  const char* begin = frame.data() + at + key.size();
  std::from_chars(begin, frame.data() + frame.size(), value);
  return value;
}

/// A request script over every ring change a snapshot must notice, and
/// over the ones it must not: accepted ingests, an ingest of only
/// too-late events, one that fails Validate, a watermark jump that
/// evicts buckets, a late event into an older live bucket and a jump
/// that evicts all but one bucket. Between them the five query types
/// run repeated, in rotating orders, including an empty window and an
/// absent group and stratum. Events carry exactly the fields `config`
/// declares.
std::vector<std::string> SnapshotScript(const ServeConfig& config) {
  auto event = [&config](int64_t t, const std::string& group, int pred,
                         int label, int score_mil, size_t stratum) {
    std::string text = "{\"t\":" + std::to_string(t) + ",\"group\":\"" +
                       group + "\",\"pred\":" + std::to_string(pred) +
                       ",\"label\":" + std::to_string(label);
    if (config.with_scores) {
      std::string mil = std::to_string(score_mil);
      mil.insert(0, 3 - mil.size(), '0');
      text += ",\"score\":0." + mil;
    }
    if (config.with_strata) text += ",\"stratum\":\"s" +
                                    std::to_string(stratum) + "\"";
    return text + "}";
  };
  auto ingest = [](const std::vector<std::string>& events) {
    std::string line = "{\"op\":\"ingest\",\"events\":[";
    for (size_t i = 0; i < events.size(); ++i) {
      line += (i > 0 ? "," : "") + events[i];
    }
    return line + "]}";
  };
  Rng rng(43);
  const char* groups[] = {"a", "b", "c"};
  auto accepted = [&](int64_t first_t, int64_t last_t, size_t n) {
    std::vector<std::string> events;
    for (size_t i = 0; i < n; ++i) {
      const int64_t t =
          first_t + static_cast<int64_t>(rng.UniformInt(
                        static_cast<uint64_t>(last_t - first_t + 1)));
      const size_t g = static_cast<size_t>(rng.UniformInt(3));
      events.push_back(event(t, groups[g], rng.Bernoulli(0.3 + 0.2 * g),
                             rng.Bernoulli(0.5),
                             static_cast<int>(rng.UniformInt(1000)),
                             static_cast<size_t>(rng.UniformInt(3))));
    }
    return ingest(events);
  };
  const std::vector<std::string> kQueries = {
      R"({"op":"query","type":"audit"})",
      R"({"op":"query","type":"four_fifths"})",
      R"({"op":"query","type":"drift"})",
      R"({"op":"query","type":"drilldown","stratum":"s1"})",
      R"({"op":"query","type":"quantiles","group":"a","q":[0.1,0.5,0.9]})",
      R"({"op":"query","type":"quantiles","group":"c","q":[0.5]})",
      R"({"op":"query","type":"drilldown","stratum":"s9"})",
      R"({"op":"query","type":"quantiles","group":"zzz","q":[0.5]})",
  };
  size_t rotation = 0;
  std::vector<std::string> lines;
  // Every query once in a rotated order, then the rotation's first
  // three again: each block starts cold on a different part.
  auto queries = [&]() {
    for (size_t i = 0; i < kQueries.size() + 3; ++i) {
      lines.push_back(kQueries[(rotation + i) % kQueries.size()]);
    }
    rotation += 3;
  };

  queries();  // empty window
  lines.push_back(accepted(0, 59, 80));
  queries();
  lines.push_back(accepted(40, 79, 40));
  queries();
  // Watermark jump to bucket 9: buckets 0 and 1 slide out.
  lines.push_back(accepted(90, 99, 20));
  queries();
  // Only too-late events: nothing changes.
  lines.push_back(ingest({event(3, "a", 1, 1, 500, 0),
                          event(17, "b", 0, 1, 250, 1)}));
  queries();
  // Fails Validate: pred out of range, then t negative.
  lines.push_back(ingest({event(95, "a", 2, 1, 500, 0),
                          event(-1, "b", 1, 0, 125, 2)}));
  queries();
  // A late event into an older live bucket (bucket 3 of 2..9).
  lines.push_back(ingest({event(33, "c", 1, 0, 875, 1)}));
  queries();
  // A jump that leaves one live bucket, holding group b only.
  lines.push_back(ingest({event(1000, "b", 1, 1, 625, 2),
                          event(1001, "b", 0, 0, 375, 2)}));
  queries();
  return lines;
}

// The snapshot a long-lived service answers from must be invisible:
// every query frame, but for its "obs" counts, equals the frame of a
// fresh service fed only the ingests before that query, and the frame's
// merge count is the live buckets of every answered query, summed.
TEST(ServeServiceTest, SnapshotAnswersEqualAColdService) {
  ServeConfig full;
  full.bucket_width = 10;
  full.num_buckets = 8;
  full.with_strata = true;
  full.min_stratum_size = 2;
  ServeConfig no_scores = full;
  no_scores.with_scores = false;
  ServeConfig no_strata = full;
  no_strata.with_strata = false;
  ServeConfig pooled = full;
  pooled.num_threads = 3;
  for (const ServeConfig& config : {full, no_scores, no_strata, pooled}) {
    ASSERT_TRUE(config.Validate().ok());
    const std::vector<std::string> script = SnapshotScript(config);
    Service service(config);
    std::vector<std::string> ingests;
    int64_t merges = 0;
    size_t answered = 0;
    for (const std::string& line : script) {
      const bool is_query = line.find("\"op\":\"query\"") != std::string::npos;
      if (is_query) {
        const Result<JsonValue> doc = JsonValue::Parse(line);
        ASSERT_TRUE(doc.ok());
        if (ParseRequest(doc.ValueOrDie(), config).ok()) {
          merges += static_cast<int64_t>(service.ring().num_live_buckets());
        }
      }
      const std::string frame = service.HandleLine(line);
      if (!is_query) {
        ingests.push_back(line);
        continue;
      }
      Service cold(config);
      for (const std::string& ingest : ingests) cold.HandleLine(ingest);
      EXPECT_EQ(WithoutObs(frame), WithoutObs(cold.HandleLine(line)))
          << line << " after " << ingests.size() << " ingests";
      const int64_t frame_merges = FrameWindowMerges(frame);
      if (frame_merges >= 0) {
        EXPECT_EQ(frame_merges, merges) << line;
        answered += frame.find("\"error\"") == std::string::npos ? 1 : 0;
      }
    }
    // The script reaches real answers, not only error frames.
    EXPECT_GT(answered, 20u);
  }
}

// ---------------------------------------------------------------------------
// The ingest decoder (DecodeIngestLine) against its oracle, the tree path
// JsonValue::Parse + ParseRequest.

/// Error frames of the parent daemon, byte for byte: the decoder declines
/// each of these lines, and the tree path must answer exactly as before.
TEST(IngestDecoderTest, ErrorFramesAreTheTreePaths) {
  const std::pair<std::string, std::string> kCases[] = {
      {R"x(not json at all)x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: bad literal at offset 0"}})x"},
      {R"x({"op":"ingest","events":[{"t":01,"group":"a","pred":1}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: expected ',' or '}' at offset 31"}})x"},
      {R"x({"op":"ingest","events":[{"t":1.,"group":"a","pred":1}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: bad number at offset 30"}})x"},
      {R"x({"op":"ingest","events":[{"t":-,"group":"a","pred":1}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: bad number at offset 30"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,"group":"a\qb","pred":1}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: bad escape '\\q'"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,"group":"ab)x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: unterminated string"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,"group":"\ud800","pred":1}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: surrogate \\u escapes not supported"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,"group":"\u00zz","pred":1}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: bad \\u escape digit"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,"group":"a","pred":2}]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"event: pred must be 0 or 1"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,"group":"a","pred":1,"label":-1}]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"event: label must be 0 or 1"}})x"},
      {R"x({"op":"ingest","events":[{"t":1e3,"group":"a","pred":1}]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"json: expected integer"}})x"},
      {R"x({"op":"ingest","events":[{"t":9223372036854775808,"group":"a","pred":1}]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"json: expected integer"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,"group":"a","pred":1,"score":1e999}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"cannot parse '1e999' as double"}})x"},
      {R"x({"op":"ingest","events":[{"group":"a","pred":1}]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"not found","message":"json: missing field 't'"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,"group":7,"pred":1}]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"json: expected string"}})x"},
      {R"x({"op":"ingest","events":[5]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"json: expected object"}})x"},
      {R"x({"schema_version":3,"op":"ingest","events":[]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"not implemented","message":"request: schema_version 3 is newer than this daemon (speaks 2)"}})x"},
      {R"x({"schema_version":0,"op":"ingest","events":[]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"request: schema_version must be >= 1"}})x"},
      {R"x({"schema_version":2.0,"op":"ingest","events":[]})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"json: expected integer"}})x"},
      {R"x({"op":"ingest","events":{}})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"invalid argument","message":"ingest: 'events' must be an array"}})x"},
      {R"x({"op":"ingest"})x",
       R"x({"schema_version":2,"op":"ingest","error":{"code":"not found","message":"json: missing field 'events'"}})x"},
      {R"x({"events":[]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"not found","message":"json: missing field 'op'"}})x"},
      {R"x({"op":"ingest","events":[]} x)x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: trailing content at offset 28"}})x"},
      {R"x({"op":"ingest","events":[1 2]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: expected ',' or ']' at offset 27"}})x"},
      {R"x({"op":"ingest","events":[{"t" 1}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: expected ':' at offset 30"}})x"},
      {R"x({"op":"ingest","events":[{"t":1,}]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: expected object key at offset 32"}})x"},
      {R"x({"op":"ingest","events":[tru]})x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: bad literal at offset 25"}})x"},
      {R"x([])x",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"request: expected a JSON object"}})x"},
      {"{\"op\":\"ingest\",\"events\":[{\"t\":1,\"group\":\"a\x01\",\"pred\":1}]}",
       R"x({"schema_version":2,"op":"error","error":{"code":"invalid argument","message":"json: unescaped control character in string"}})x"},
  };
  Service service(ServeConfig{});
  std::vector<Event> events;
  for (const auto& [line, frame] : kCases) {
    EXPECT_FALSE(serve::DecodeIngestLine(line, &events)) << line;
    EXPECT_EQ(service.HandleLine(line), frame) << line;
  }
  EXPECT_EQ(service.ring().watermark(), -1) << "an error line ingested";
}

TEST(IngestDecoderTest, DecodesTheCanonicalShape) {
  std::vector<Event> events;
  ASSERT_TRUE(serve::DecodeIngestLine(
      " {\"events\" :\t[ {\"score\":2.5E-1,\"pred\":1,\"stratum\":\"s\","
      "\"t\":-0,\"group\":\"gr\xc3\xbcn\"},{\"t\":9223372036854775807,"
      "\"group\":\"\",\"pred\":0,\"label\":1}\r\n],\"schema_version\":1,"
      "\"op\":\"ingest\"} ",
      &events));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t, 0);
  EXPECT_EQ(events[0].group, "gr\xc3\xbcn");
  EXPECT_EQ(events[0].pred, 1);
  EXPECT_FALSE(events[0].has_label);
  EXPECT_TRUE(events[0].has_score);
  EXPECT_EQ(events[0].score, 0.25);
  EXPECT_TRUE(events[0].has_stratum);
  EXPECT_EQ(events[0].stratum, "s");
  EXPECT_EQ(events[1].t, INT64_MAX);
  EXPECT_EQ(events[1].group, "");
  EXPECT_TRUE(events[1].has_label);
  EXPECT_EQ(events[1].label, 1);
  EXPECT_FALSE(events[1].has_score);

  // The output vector is reused: a later line replaces its events.
  ASSERT_TRUE(serve::DecodeIngestLine(R"({"op":"ingest","events":[]})",
                                      &events));
  EXPECT_TRUE(events.empty());
}

/// One ingest line as key/value texts, so a mutation can edit fields
/// before the line is rendered with random JSON whitespace.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string Space(Rng* rng) {
  static const char* const kSpaces[] = {"", "", "", " ", "\t", "\n", "\r",
                                        "  "};
  return kSpaces[rng->UniformInt(std::size(kSpaces))];
}

std::string RenderObject(const Fields& fields, Rng* rng) {
  std::string out = "{" + Space(rng);
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += "," + Space(rng);
    out += "\"" + fields[i].first + "\"" + Space(rng) + ":" + Space(rng) +
           fields[i].second + Space(rng);
  }
  return out + "}";
}

template <typename T>
T Pick(const std::vector<T>& items, Rng* rng) {
  return items[rng->UniformInt(items.size())];
}

/// A canonical event: required t/group/pred, optional label, score and
/// stratum, keys in random order.
Fields RandomEvent(Rng* rng) {
  static const std::vector<std::string> kGroups = {
      "alpha", "beta", "gamma", "gr\xc3\xbcn", "", "a b", "x/y"};
  static const std::vector<std::string> kScores = {
      "0.5", "0", "1", "0.123456", "-0.0", "1e-3", "2.5E+2", "7E2"};
  Fields event = {
      {"t", std::to_string(rng->UniformInt(400))},
      {"group", "\"" + Pick(kGroups, rng) + "\""},
      {"pred", rng->Bernoulli(0.5) ? "1" : "0"},
  };
  if (rng->Bernoulli(0.9)) {
    event.emplace_back("label", rng->Bernoulli(0.4) ? "1" : "0");
  }
  if (rng->Bernoulli(0.9)) {
    char text[32];
    const double score = rng->Uniform();
    const auto end = std::to_chars(text, text + sizeof(text), score).ptr;
    event.emplace_back("score", rng->Bernoulli(0.7)
                                    ? std::string(text, end)
                                    : Pick(kScores, rng));
  }
  if (rng->Bernoulli(0.3)) {
    event.emplace_back("stratum", "\"s" + std::to_string(rng->UniformInt(3)) +
                                      "\"");
  }
  rng->Shuffle(&event);
  return event;
}

/// A canonical ingest line's fields: op, events and sometimes a
/// schema_version, in random order. `events` holds each event's fields.
struct LineFields {
  Fields top;
  std::vector<Fields> events;
};

LineFields RandomLine(Rng* rng) {
  LineFields line;
  line.top = {{"op", "\"ingest\""}, {"events", ""}};
  if (rng->Bernoulli(0.3)) {
    line.top.emplace_back("schema_version", rng->Bernoulli(0.5) ? "1" : "2");
  }
  rng->Shuffle(&line.top);
  const size_t n = rng->UniformInt(5);
  for (size_t i = 0; i < n; ++i) line.events.push_back(RandomEvent(rng));
  return line;
}

std::string Render(const LineFields& line, Rng* rng) {
  std::string events = "[" + Space(rng);
  for (size_t i = 0; i < line.events.size(); ++i) {
    if (i > 0) events += "," + Space(rng);
    events += RenderObject(line.events[i], rng) + Space(rng);
  }
  events += "]";
  Fields top = line.top;
  for (auto& [key, value] : top) {
    if (key == "events") value = events;
  }
  return Space(rng) + RenderObject(top, rng) + Space(rng);
}

/// Sets `key` in `fields` to `value`; false when the key is absent.
bool Replace(Fields* fields, const std::string& key, const std::string& value) {
  for (auto& [name, text] : *fields) {
    if (name == key) {
      text = value;
      return true;
    }
  }
  return false;
}

enum class Expect { kAccept, kDecline, kEither };

/// Applies one random mutation to a canonical line and renders it.
/// `*expect` is what the decoder must do with the result: accept an
/// unmutated line, decline a shape it does not own, or either where
/// the mutation may or may not leave a canonical line.
std::string Mutate(LineFields line, Rng* rng, Expect* expect) {
  Fields* event = line.events.empty()
                      ? nullptr
                      : &line.events[rng->UniformInt(line.events.size())];
  Fields* target = event != nullptr && rng->Bernoulli(0.7) ? event : &line.top;
  *expect = Expect::kDecline;
  switch (rng->UniformInt(15)) {
    case 0:
    case 12:
    case 13:
    case 14:
      *expect = Expect::kAccept;
      return Render(line, rng);
    case 1: {  // flip one byte
      std::string text = Render(line, rng);
      static const std::string kBytes = "\"\\{}[],:09-+eE. x\x01\xff";
      text[rng->UniformInt(text.size())] =
          kBytes[rng->UniformInt(kBytes.size())];
      *expect = Expect::kEither;
      return text;
    }
    case 2: {  // truncate
      const std::string text = Render(line, rng);
      *expect = Expect::kEither;
      return text.substr(0, rng->UniformInt(text.size()));
    }
    case 3: {  // insert whitespace anywhere
      std::string text = Render(line, rng);
      text.insert(rng->UniformInt(text.size() + 1), Space(rng) + " ");
      *expect = Expect::kEither;
      return text;
    }
    case 4:  // a repeated key
      target->push_back(Pick(*target, rng));
      rng->Shuffle(target);
      break;
    case 5:  // an unknown key holding nested values
      target->emplace_back(
          rng->Bernoulli(0.5) ? "meta" : "t2",
          Pick<std::string>({R"({"a":[1,{"b":null}],"c":"x"})", "[[],{}]",
                             "true", "null", R"("s")"},
                            rng));
      rng->Shuffle(target);
      break;
    case 6:  // an escape in a string
      if (event == nullptr) return Mutate(line, rng, expect);
      Replace(event, "group",
              Pick<std::string>({R"("\u0061lpha")", R"("a\"b")",
                                 R"("\\")", R"("a\/b")"},
                                rng));
      break;
    case 7: {  // pred spelled other ways
      if (event == nullptr) return Mutate(line, rng, expect);
      const std::string pred =
          Pick<std::string>({"1e3", "-0", "0.5", "2", "1.0", "-1", "true",
                             R"("1")", "01"},
                            rng);
      Replace(event, "pred", pred);
      if (pred == "-0") *expect = Expect::kAccept;
      break;
    }
    case 8: {  // t at and past the int64 bounds
      if (event == nullptr) return Mutate(line, rng, expect);
      const std::string t = Pick<std::string>(
          {"9223372036854775807", "-9223372036854775808",
           "9223372036854775808", "-9223372036854775809", "1e3", "1.5",
           "-3"},
          rng);
      Replace(event, "t", t);
      if (t == "9223372036854775807" || t == "-9223372036854775808" ||
          t == "-3") {
        *expect = Expect::kAccept;
      }
      break;
    }
    case 9:  // a score ParseDouble refuses
      if (event == nullptr) return Mutate(line, rng, expect);
      if (!Replace(event, "score", Pick<std::string>({"1e999", "-1e999"},
                                                     rng))) {
        event->emplace_back("score", "1e999");
      }
      break;
    case 10: {  // drop a field
      Fields* from = event != nullptr ? event : &line.top;
      const size_t i = rng->UniformInt(from->size());
      const std::string key = (*from)[i].first;
      from->erase(from->begin() + static_cast<ptrdiff_t>(i));
      if (key == "label" || key == "score" || key == "stratum" ||
          key == "schema_version") {
        *expect = Expect::kAccept;
      }
      break;
    }
    default:  // op or schema_version off the canonical values
      if (rng->Bernoulli(0.5)) {
        Replace(&line.top, "op",
                Pick<std::string>({R"("query")", R"("Ingest")", "1"}, rng));
      } else if (!Replace(&line.top, "schema_version",
                          Pick<std::string>({"3", "0", "2.0", R"("2")"},
                                            rng))) {
        line.top.emplace_back("schema_version", "3");
      }
      break;
  }
  return Render(line, rng);
}

// Random canonical ingest lines and mutations of them. Whenever the
// decoder accepts a line, its events must equal the tree path's; when
// the tree path refuses one, the decoder must have declined it. And a
// Service answering each line must answer as one fed the same request
// through the tree path: the same ack for every line, the same error
// frame, the same window afterwards.
TEST(IngestDecoderTest, AgreesWithTheTreePathOnRandomAndMutatedLines) {
  ServeConfig config;
  config.bucket_width = 10;
  config.num_buckets = 8;
  Service decoded(config);
  Service tree(config);
  Rng rng(61);
  size_t accepted = 0;
  size_t declined = 0;
  size_t refused = 0;
  std::vector<Event> events;
  for (size_t i = 0; i < 4000; ++i) {
    Expect expect = Expect::kEither;
    const std::string line = Mutate(RandomLine(&rng), &rng, &expect);
    SCOPED_TRACE(line);
    const bool decodes = serve::DecodeIngestLine(line, &events);
    EXPECT_EQ(serve::DecoderDisagreement(line), "");
    const bool oracle_ok = serve::OracleIngestEvents(line).ok();
    if (!oracle_ok) {
      ++refused;
      EXPECT_FALSE(decodes) << "the tree path refuses this line";
    }
    if (expect == Expect::kAccept) {
      EXPECT_TRUE(decodes);
    }
    if (expect == Expect::kDecline) {
      EXPECT_FALSE(decodes);
    }
    (decodes ? accepted : declined) += 1;
    EXPECT_EQ(decoded.HandleLine(line),
              tree.HandleLine(decodes ? serve::WithTreeOnlyKey(line) : line));
  }
  EXPECT_GT(accepted, 1000u) << declined << " declined";
  EXPECT_GT(declined, 1000u) << accepted << " accepted";
  EXPECT_GT(refused, 1000u) << declined << " declined";
  EXPECT_GT(decoded.ring().num_events(), 0u);
  for (const char* query :
       {R"({"op":"query","type":"audit"})",
        R"({"op":"query","type":"quantiles","group":"alpha","q":[0.5]})"}) {
    EXPECT_EQ(decoded.HandleLine(query), tree.HandleLine(query));
  }
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

/// What a Service did with a stream, modelled without its ring: every
/// event the tree path reads from the ingest lines, those the window
/// accepted (refused when, once the watermark has moved up to it, an
/// event's bucket lies num_buckets or more below it), and those still in
/// the window, ordered stably by bucket.
struct WindowModel {
  std::vector<Event> events;
  std::vector<Event> accepted;
  std::vector<Event> in_window;
};

/// Feeds `lines` to `service` through HandleLine, checking that each
/// ingest line takes the decoder and that the acks add up to the model.
WindowModel FeedAndModel(Service* service,
                         const std::vector<std::string>& lines) {
  const ServeConfig& config = service->config();
  const auto num_buckets = static_cast<int64_t>(config.num_buckets);
  auto bucket = [&config](const Event& event) {
    return event.t / config.bucket_width;
  };
  WindowModel model;
  int64_t watermark = -1;
  int64_t acked = 0;
  std::vector<Event> decoded;
  for (const std::string& line : lines) {
    const std::string response = service->HandleLine(line);
    Result<std::vector<Event>> events = serve::OracleIngestEvents(line);
    if (!events.ok()) continue;  // a query
    EXPECT_TRUE(serve::DecodeIngestLine(line, &decoded)) << line;
    acked += JsonValue::Parse(response)
                 .ValueOrDie()
                 .Get("accepted")
                 .ValueOrDie()
                 ->AsInt64()
                 .ValueOrDie();
    for (const Event& event : *events) {
      model.events.push_back(event);
      watermark = std::max(watermark, bucket(event));
      if (bucket(event) > watermark - num_buckets) {
        model.accepted.push_back(event);
      }
    }
  }
  EXPECT_EQ(acked, static_cast<int64_t>(model.accepted.size()));
  EXPECT_EQ(service->ring().watermark(), watermark);
  for (const Event& event : model.accepted) {
    if (bucket(event) >= service->ring().window_start()) {
      model.in_window.push_back(event);
    }
  }
  std::stable_sort(model.in_window.begin(), model.in_window.end(),
                   [&bucket](const Event& a, const Event& b) {
                     return bucket(a) < bucket(b);
                   });
  return model;
}

/// Ingest lines of `batch` events each, in the canonical shape.
std::vector<std::string> IngestLines(const std::vector<Event>& events,
                                     size_t batch) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < events.size(); i += batch) {
    std::string line = R"({"op":"ingest","events":[)";
    for (size_t j = i; j < std::min(events.size(), i + batch); ++j) {
      const Event& event = events[j];
      char score[32];
      const auto end =
          std::to_chars(score, score + sizeof(score), event.score).ptr;
      if (j > i) line += ",";
      line += R"({"t":)" + std::to_string(event.t) + R"(,"group":")" +
              event.group + R"(","pred":)" + std::to_string(event.pred) +
              R"(,"label":)" + std::to_string(event.label) +
              R"(,"score":)" + std::string(score, end) + R"(,"stratum":")" +
              event.stratum + R"("})";
    }
    lines.push_back(line + "]}");
  }
  return lines;
}

/// `n` events at t = 3i, a fifth of them moved up to `jitter` back in t.
/// Group g is drawn with probability weights[g]; event i's stratum is
/// stratum(i).
std::vector<Event> ShapedEvents(size_t n, const std::vector<double>& weights,
                                const std::function<std::string(size_t)>&
                                    stratum,
                                uint64_t seed, size_t jitter) {
  const char* groups[] = {"alpha", "beta", "gamma"};
  const double pred_rate[] = {0.5, 0.35, 0.44};
  Rng rng(seed);
  std::vector<Event> events;
  for (size_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    size_t g = 0;
    while (g + 1 < weights.size() && u >= weights[g]) u -= weights[g++];
    auto t = static_cast<int64_t>(i * 3);
    if (rng.Bernoulli(0.2)) {
      t -= std::min<int64_t>(t, static_cast<int64_t>(rng.UniformInt(jitter)));
    }
    Event event = MakeEvent(t, groups[g], rng.Bernoulli(pred_rate[g]) ? 1 : 0,
                            rng.Bernoulli(0.42) ? 1 : 0, rng.Uniform());
    event.stratum = stratum(i);
    event.has_stratum = true;
    events.push_back(std::move(event));
  }
  return events;
}

/// Windowed vs batch: the window's exact tallies must give the same
/// metric and conditional reports as the batch audit of the events
/// still in the window, and every drill-down the batch audit of that
/// stratum's rows. The sketch answers (quantiles, drift) must lie
/// within the sketch error bounds of the exact in-window scores. The
/// model orders the in-window events stably by bucket, the order the
/// window folds its buckets in, which fixes the first-seen order of
/// groups and strata.
void ExpectWindowMatchesBatch(Service* service, const WindowModel& model) {
  const ServeConfig& config = service->config();
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

  const std::vector<Event>& in_window = model.in_window;
  ASSERT_EQ(in_window.size(), service->ring().num_events());
  const audit::WindowedPartial window = service->ring().Window(nullptr);
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

  std::vector<std::string> strata;
  for (const Event& event : in_window) {
    if (std::find(strata.begin(), strata.end(), event.stratum) ==
        strata.end()) {
      strata.push_back(event.stratum);
    }
  }
  ASSERT_EQ(window.strata_counts.keys(), strata);
  for (const std::string& stratum : strata) {
    std::vector<Event> rows;
    for (const Event& event : in_window) {
      if (event.stratum == stratum) rows.push_back(event);
    }
    const data::Table stratum_table = EventTable(rows);
    Result<audit::AuditResult> expected = audit::Auditor::Run(
        audit::AuditSource::FromTable(stratum_table), stratum_config);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const std::string response = service->HandleLine(
        R"({"op":"query","type":"drilldown","stratum":")" + stratum + R"("})");
    EXPECT_NE(response.find("\"findings\":" + FindingsJson(*expected) + ","),
              std::string::npos)
        << stratum << ": " << response;
  }

  auto number = [](const JsonValue& object, const char* key) {
    return object.Get(key).ValueOrDie()->AsDouble().ValueOrDie();
  };
  const JsonValue drift =
      JsonValue::Parse(service->HandleLine(R"({"op":"query","type":"drift"})"))
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
        JsonValue::Parse(service->HandleLine(
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

ServeConfig WindowedAuditConfig() {
  ServeConfig config;
  config.bucket_width = 400;
  config.num_buckets = 16;
  config.with_strata = true;
  return config;
}

std::string UniformStratum(size_t i) { return "s" + std::to_string(i % 4); }

// Each group holds about 600 in-window scores, three times the sketch
// k, so its sketch compacts. Events arrive out of order; some are too
// late to enter and some slide out again.
TEST(WindowedAuditTest, WindowMatchesBatchAuditOfItsEvents) {
  for (uint64_t seed : {43u, 47u, 59u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Service service(WindowedAuditConfig());
    const WindowModel model =
        FeedAndModel(&service, MakeStream(3000, 97, 0, seed, 8000));
    ASSERT_LT(model.accepted.size(), model.events.size())
        << "no event arrived too late";
    ASSERT_LT(model.in_window.size(), model.accepted.size())
        << "no event slid out";
    ASSERT_EQ(service.ring().Window(nullptr).strata_counts.num_keys(), 4u);
    ExpectWindowMatchesBatch(&service, model);
  }
}

// One group holds 80% of the events and one 5% (about 100 in the
// window, below the sketch k, so its sketch stays exact).
TEST(WindowedAuditTest, SkewedGroupsMatchBatchAudit) {
  Service service(WindowedAuditConfig());
  const std::vector<Event> events =
      ShapedEvents(3000, {0.80, 0.15, 0.05}, UniformStratum, 67, 8000);
  const WindowModel model = FeedAndModel(&service, IngestLines(events, 97));
  ExpectWindowMatchesBatch(&service, model);
}

// Stratum "early" holds only the first 600 events, which have all slid
// out by the end: the window and the batch audit both lack it, and a
// drill-down into it is a query error, not an empty answer.
TEST(WindowedAuditTest, StratumWithNoEventsInTheWindow) {
  Service service(WindowedAuditConfig());
  const std::vector<Event> events = ShapedEvents(
      3000, {0.34, 0.33, 0.33},
      [](size_t i) { return i < 600 ? "early" : UniformStratum(i); }, 71,
      8000);
  const WindowModel model = FeedAndModel(&service, IngestLines(events, 97));
  ASSERT_EQ(service.ring().Window(nullptr).strata_counts.FindKey("early"),
            service.ring().Window(nullptr).strata_counts.num_keys());
  const std::string drilldown = service.HandleLine(
      R"({"op":"query","type":"drilldown","stratum":"early"})");
  EXPECT_NE(drilldown.find(R"("op":"query")"), std::string::npos);
  EXPECT_NE(drilldown.find("'early' not present in the window"),
            std::string::npos)
      << drilldown;
  ExpectWindowMatchesBatch(&service, model);
}

// A last batch whose every event is older than the window: the ack
// counts them all rejected and the window does not change.
TEST(WindowedAuditTest, BatchOfOnlyTooLateEventsLeavesTheWindow) {
  const ServeConfig config = WindowedAuditConfig();
  Service service(config);
  const std::vector<Event> events =
      ShapedEvents(3000, {0.34, 0.33, 0.33}, UniformStratum, 73, 8000);
  WindowModel model = FeedAndModel(&service, IngestLines(events, 97));
  // The window and findings; the trailing counts move with every line.
  auto findings = [&service] {
    const std::string audit =
        service.HandleLine(R"({"op":"query","type":"audit"})");
    return audit.substr(0, audit.find(R"("obs":)"));
  };
  const std::string before = findings();

  const int64_t too_late = service.ring().window_start() * config.bucket_width;
  std::vector<Event> late =
      ShapedEvents(50, {0.34, 0.33, 0.33}, UniformStratum, 79, 1);
  ASSERT_GT(too_late, static_cast<int64_t>(late.size()));
  for (size_t i = 0; i < late.size(); ++i) {
    late[i].t = too_late - 1 - static_cast<int64_t>(i);
  }
  const std::string late_line = IngestLines(late, late.size())[0];
  std::vector<Event> decoded;
  ASSERT_TRUE(serve::DecodeIngestLine(late_line, &decoded));
  EXPECT_NE(service.HandleLine(late_line).find(R"("accepted":0,"rejected":50)"),
            std::string::npos);
  model.events.insert(model.events.end(), late.begin(), late.end());
  EXPECT_EQ(findings(), before);
  ExpectWindowMatchesBatch(&service, model);
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
