// fairlaw::obs — probe math, span nesting, export schema stability, and
// the determinism contract (byte-identical export for any thread count).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "audit/auditor.h"
#include "audit/source.h"
#include "data/csv.h"
#include "data/table.h"
#include "obs/obs.h"

namespace fairlaw::obs {
namespace {

#ifdef FAIRLAW_OBS_DISABLED

// -DFAIRLAW_OBS=OFF compiles every probe to a no-op; the only contract
// left to test is that nothing records anything.
TEST(ObsCompiledOutTest, ProbesAreInert) {
  EXPECT_FALSE(Enabled());
  SetEnabled(true);  // the compile switch wins over the runtime one
  EXPECT_FALSE(Enabled());
  Counter* counter = GetCounter("test.compiled_out");
  counter->Increment(7);
  EXPECT_EQ(counter->Value(), 0u);
  { TraceSpan span("compiled_out"); }
  EXPECT_EQ(ExportJson().find("compiled_out_span"), std::string::npos);
}

#else

std::string ReadGoldenFile(const std::string& name) {
  std::ifstream in(std::string(FAIRLAW_TEST_GOLDEN_DIR) + "/" + name);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

// Declared first on purpose: the golden comparison needs a registry that
// holds only the probes this test creates, and gtest runs tests in
// declaration order. Later tests register extra counters that would
// (harmlessly, at value 0) show up in the export.
TEST(ObsExportTest, MatchesGoldenFile) {
  ResetAll();
  GetCounter("golden.a")->Increment(3);
  GetCounter("golden.b")->Increment();
  Histogram* histogram = GetHistogram("golden.h");
  histogram->Record(0);
  histogram->Record(1);
  histogram->Record(5);
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  {
    TraceSpan outer("outer");
  }
  Registry::Global().MergeSpan("outer/inner", 1, 0);
  EXPECT_EQ(ExportJson(), ReadGoldenFile("obs_export.json"));
  ResetAll();
}

TEST(ObsExportTest, SchemaKeysAreStable) {
  ResetAll();
  GetCounter("schema.counter")->Increment();
  GetHistogram("schema.histogram")->Record(2);
  { TraceSpan span("schema_span"); }
  const std::string json = ExportJson();
  // Top-level key order is part of the schema: version, enabled,
  // counters, histograms, spans.
  const size_t version_pos = json.find("\"fairlaw_obs_version\":1");
  const size_t enabled_pos = json.find("\"enabled\":true");
  const size_t counters_pos = json.find("\"counters\":[");
  const size_t histograms_pos = json.find("\"histograms\":[");
  const size_t spans_pos = json.find("\"spans\":[");
  ASSERT_NE(version_pos, std::string::npos);
  ASSERT_NE(enabled_pos, std::string::npos);
  ASSERT_NE(counters_pos, std::string::npos);
  ASSERT_NE(histograms_pos, std::string::npos);
  ASSERT_NE(spans_pos, std::string::npos);
  EXPECT_LT(version_pos, enabled_pos);
  EXPECT_LT(enabled_pos, counters_pos);
  EXPECT_LT(counters_pos, histograms_pos);
  EXPECT_LT(histograms_pos, spans_pos);
  // Default export excludes wall-clock totals (determinism contract).
  EXPECT_EQ(json.find("total_ns"), std::string::npos);
  ExportOptions timings;
  timings.include_timings = true;
  EXPECT_NE(ExportJson(timings).find("total_ns"), std::string::npos);
  ResetAll();
}

TEST(ObsCounterTest, IncrementAndReset) {
  Counter* counter = GetCounter("test.counter");
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->Value(), 42u);
  // Same name, same probe: the registry hands out stable pointers.
  EXPECT_EQ(GetCounter("test.counter"), counter);
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0u);
}

TEST(ObsHistogramTest, BucketMath) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~uint64_t{0});
  // Every value lands in the bucket whose upper bound admits it.
  for (uint64_t value : {0ull, 1ull, 2ull, 100ull, 65535ull, 65536ull}) {
    const size_t bucket = Histogram::BucketOf(value);
    EXPECT_LE(value, Histogram::BucketUpperBound(bucket)) << value;
    if (bucket > 0) {
      EXPECT_GT(value, Histogram::BucketUpperBound(bucket - 1)) << value;
    }
  }
}

TEST(ObsHistogramTest, RecordAggregates) {
  Histogram* histogram = GetHistogram("test.histogram");
  histogram->Reset();
  histogram->Record(0);
  histogram->Record(1);
  histogram->Record(5);
  histogram->Record(5);
  EXPECT_EQ(histogram->Count(), 4u);
  EXPECT_EQ(histogram->Sum(), 11u);
  EXPECT_EQ(histogram->BucketCount(0), 1u);
  EXPECT_EQ(histogram->BucketCount(1), 1u);
  EXPECT_EQ(histogram->BucketCount(3), 2u);
  EXPECT_EQ(histogram->BucketCount(2), 0u);
  EXPECT_EQ(histogram->BucketCount(Histogram::kNumBuckets), 0u);
  histogram->Reset();
  EXPECT_EQ(histogram->Count(), 0u);
}

TEST(ObsSpanTest, NestedSpansJoinPaths) {
  ResetAll();
  EXPECT_EQ(CurrentPath(), "");
  {
    TraceSpan outer("outer");
    EXPECT_EQ(CurrentPath(), "outer");
    {
      TraceSpan inner("inner");
      EXPECT_EQ(CurrentPath(), "outer/inner");
    }
    EXPECT_EQ(CurrentPath(), "outer");
  }
  EXPECT_EQ(CurrentPath(), "");
  const std::string json = ExportJson();
  EXPECT_NE(json.find("{\"path\":\"outer\",\"count\":1}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"path\":\"outer/inner\",\"count\":1}"),
            std::string::npos)
      << json;
  ResetAll();
}

TEST(ObsSpanTest, ExplicitParentReproducesSerialNesting) {
  ResetAll();
  std::string parent;
  {
    TraceSpan root("root");
    parent = CurrentPath();
  }
  // A worker thread would open the span with the captured parent path;
  // doing it here (after `root` closed) models exactly that.
  { TraceSpan worker("job", parent); }
  const std::string json = ExportJson();
  EXPECT_NE(json.find("{\"path\":\"root/job\",\"count\":1}"),
            std::string::npos)
      << json;
  ResetAll();
}

TEST(ObsKillSwitchTest, DisabledProbesAreNoOps) {
  Counter* counter = GetCounter("test.disabled");
  Histogram* histogram = GetHistogram("test.disabled_h");
  counter->Reset();
  histogram->Reset();
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  counter->Increment(100);
  histogram->Record(100);
  {
    TraceSpan span("disabled_span");
    EXPECT_EQ(CurrentPath(), "");
  }
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->Count(), 0u);
  EXPECT_EQ(ExportJson().find("disabled_span"), std::string::npos);
}

// The tentpole acceptance criterion: the export after a full audit is
// byte-identical whatever the thread count, because counts commute and
// span paths rebuild the serial nesting on workers.
TEST(ObsDeterminismTest, AuditExportIdenticalAcrossThreadCounts) {
  std::ostringstream csv;
  csv << "sex,pred,label,score,dept\n";
  for (int i = 0; i < 240; ++i) {
    const bool male = i % 2 == 0;
    const int pred = (i % 3 == 0) ? 1 : 0;
    const int label = (i % 5 == 0) ? 1 - pred : pred;
    const double score = (pred == 1) ? 0.55 + 0.3 * ((i % 7) / 7.0)
                                     : 0.10 + 0.3 * ((i % 7) / 7.0);
    csv << (male ? "male" : "female") << ',' << pred << ',' << label << ','
        << score << ',' << (i % 4 < 2 ? "eng" : "sales") << '\n';
  }
  const data::Table table = data::ReadCsvString(csv.str()).ValueOrDie();

  auto export_for_threads = [&](size_t num_threads) {
    ResetAll();
    audit::AuditConfig config;
    config.protected_column = "sex";
    config.prediction_column = "pred";
    config.label_column = "label";
    config.score_column = "score";
    config.strata_columns = {"dept"};
    config.num_threads = num_threads;
    EXPECT_TRUE(
        audit::Auditor::Run(audit::AuditSource::FromTable(table), config).ok());
    return ExportJson();
  };

  const std::string serial = export_for_threads(1);
  EXPECT_NE(serial.find("\"path\":\"run_audit\",\"count\":1"),
            std::string::npos)
      << serial;
  EXPECT_NE(serial.find("run_audit/metric/demographic_parity"),
            std::string::npos)
      << serial;
  EXPECT_NE(serial.find("\"name\":\"audit.rows_audited\",\"value\":240"),
            std::string::npos)
      << serial;
  for (const size_t threads : {2u, 8u, 0u}) {
    EXPECT_EQ(export_for_threads(threads), serial) << "threads=" << threads;
  }
  ResetAll();
}

#endif  // FAIRLAW_OBS_DISABLED

}  // namespace
}  // namespace fairlaw::obs
