// Tests for the morsel-driven audit engine (DESIGN.md §14): chunk-boundary
// edges and nulls straddling chunk edges seen through a streamed
// Auditor::Run, byte-identical audit output across chunk sizes / thread
// counts / ingestion paths (every streamed layout against the one-chunk
// table audit), the streaming CSV reader against literal cells, the
// subgroup walk against the row-wise oracle, and the radix/presorted
// tiers of the distance path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/partials.h"
#include "audit/source.h"
#include "base/string_util.h"
#include "audit/subgroup.h"
#include "data/csv.h"
#include "data/table.h"
#include "metrics/fairness_metric.h"
#include "obs/obs.h"
#include "stats/distance.h"
#include "stats/mergeable.h"
#include "stats/rng.h"
#include "stats/sort.h"
#include "support/strata_strings.h"
#include "support/subgroup_rowwise.h"

namespace fairlaw {
namespace {

using audit::AuditConfig;
using audit::AuditResult;
using audit::SubgroupAuditOptions;
using audit::SubgroupAuditResult;
using data::Table;
using stats::Rng;

/// Deterministic decisions CSV: group, stratum, prediction, label, score.
std::string MakeAuditCsv(size_t rows, uint64_t seed) {
  const char* groups[] = {"a", "b", "c"};
  const double rates[] = {0.3, 0.5, 0.7};
  Rng rng(seed);
  std::string text = "g,st,p,y,s\n";
  for (size_t i = 0; i < rows; ++i) {
    const size_t g = static_cast<size_t>(rng.UniformInt(3));
    text += groups[g];
    text += ",s";
    text += std::to_string(rng.UniformInt(2));
    text += ',';
    text += rng.Bernoulli(rates[g]) ? '1' : '0';
    text += ',';
    text += rng.Bernoulli(0.5) ? '1' : '0';
    text += ',';
    text += FormatDouble(rng.Uniform(), 6);
    text += '\n';
  }
  return text;
}

/// Writes `text` to `path` byte for byte.
void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

AuditConfig FullAuditConfig() {
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "p";
  config.label_column = "y";
  config.score_column = "s";
  config.strata_columns = {"st"};
  config.min_stratum_size = 5;
  config.audit_score_distribution = true;
  return config;
}

// ---------------------------------------------------------------------------
// Streaming CSV reader.

/// The awkward fixture's cells as the readers must produce them: quoted
/// delimiter, "" escape, CRLF, an embedded newline, and null tokens.
/// Written out literally so the check does not compare one reader with
/// another.
const char kAwkwardCsv[] =
    "name,score,tag\r\n"
    "\"x,y\",1.5,\"he said \"\"hi\"\"\"\r\n"
    ",2.5,plain\r\n"
    "NA,,third\r\n"
    "dora,4.5,\"multi\nline\"\r\n"
    "eve,5.5,last\r\n";

void ExpectAwkwardCells(const std::vector<Table>& chunks,
                        const std::string& label) {
  const std::vector<std::vector<std::string>> expected = {
      {"x,y", "1.500000", "he said \"hi\""},
      {"<null>", "2.500000", "plain"},
      {"<null>", "<null>", "third"},
      {"dora", "4.500000", "multi\nline"},
      {"eve", "5.500000", "last"},
  };
  std::vector<std::vector<std::string>> got;
  for (const Table& chunk : chunks) {
    ASSERT_EQ(chunk.num_columns(), 3u) << label;
    EXPECT_EQ(chunk.schema().field(0).name, "name") << label;
    EXPECT_EQ(chunk.schema().field(0).type, data::DataType::kString) << label;
    EXPECT_EQ(chunk.schema().field(1).name, "score") << label;
    EXPECT_EQ(chunk.schema().field(1).type, data::DataType::kDouble) << label;
    EXPECT_EQ(chunk.schema().field(2).name, "tag") << label;
    EXPECT_EQ(chunk.schema().field(2).type, data::DataType::kString) << label;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        row.push_back(chunk.column(c).IsValid(r)
                          ? chunk.column(c).ValueToString(r)
                          : "<null>");
      }
      got.push_back(std::move(row));
    }
  }
  EXPECT_EQ(got, expected) << label;
}

TEST(CsvChunkReaderTest, AwkwardFixtureCellsMatchLiterals) {
  const std::string path = "chunked_test_literal.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << kAwkwardCsv;
    ASSERT_TRUE(out.good());
  }
  ExpectAwkwardCells({data::ReadCsvString(kAwkwardCsv).ValueOrDie()},
                     "ReadCsvString");
  ExpectAwkwardCells({data::ReadCsvFile(path).ValueOrDie()}, "ReadCsvFile");
  for (size_t chunk_rows : {size_t{1}, size_t{2}, size_t{3}, size_t{100}}) {
    data::CsvChunkReader::Options options;
    options.chunk_rows = chunk_rows;
    data::CsvChunkReader reader =
        data::CsvChunkReader::Make(path, options).ValueOrDie();
    EXPECT_EQ(reader.num_rows(), 5u);
    std::vector<Table> chunks;
    while (true) {
      auto chunk = reader.Next().ValueOrDie();
      if (!chunk.has_value()) break;
      EXPECT_LE(chunk->num_rows(), chunk_rows);
      chunks.push_back(std::move(*chunk));
    }
    EXPECT_EQ(chunks.size(), (5 + chunk_rows - 1) / chunk_rows);
    ExpectAwkwardCells(chunks, "CsvChunkReader chunk_rows=" +
                                   std::to_string(chunk_rows));
  }
  std::remove(path.c_str());
}

TEST(CsvChunkReaderTest, ReportsRowCountBeforeStreamingAndDrains) {
  const std::string path = "chunked_test_drain.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << MakeAuditCsv(10, 5);
    ASSERT_TRUE(out.good());
  }
  data::CsvChunkReader::Options options;
  options.chunk_rows = 4;
  data::CsvChunkReader reader =
      data::CsvChunkReader::Make(path, options).ValueOrDie();
  EXPECT_EQ(reader.num_rows(), 10u);
  size_t chunks = 0;
  size_t rows = 0;
  while (true) {
    auto chunk = reader.Next().ValueOrDie();
    if (!chunk.has_value()) break;
    ++chunks;
    rows += chunk->num_rows();
  }
  EXPECT_EQ(chunks, 3u);  // 4 + 4 + 2
  EXPECT_EQ(rows, 10u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Morsel-driven audit engine.

TEST(ChunkedAuditTest, ByteIdenticalAcrossChunkSizesAndThreads) {
  const std::string path = "chunked_test_layouts.csv";
  const std::string text = MakeAuditCsv(300, 23);
  WriteText(path, text);
  Table table = data::ReadCsvString(text).ValueOrDie();
  const std::string reference =
      audit::Auditor::Run(audit::AuditSource::FromTable(table),
                          FullAuditConfig())
          .ValueOrDie().Render();
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      AuditConfig config = FullAuditConfig();
      config.chunk_rows = chunk_rows;
      config.num_threads = threads;
      const std::string render =
          audit::Auditor::Run(audit::AuditSource::FromCsv(path), config)
              .ValueOrDie().Render();
      EXPECT_EQ(render, reference)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

TEST(ChunkedAuditTest, StreamingCsvMatchesInMemoryAudit) {
  const std::string path = "chunked_test_stream.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << MakeAuditCsv(200, 29);
    ASSERT_TRUE(out.good());
  }
  Table table = data::ReadCsvFile(path).ValueOrDie();
  const std::string reference =
      audit::Auditor::Run(audit::AuditSource::FromTable(table),
                          FullAuditConfig())
          .ValueOrDie().Render();
  for (size_t chunk_rows : {size_t{9}, size_t{64}, size_t{100000}}) {
    for (size_t threads : {size_t{1}, size_t{3}}) {
      AuditConfig config = FullAuditConfig();
      config.chunk_rows = chunk_rows;
      config.num_threads = threads;
      const std::string streamed =
          audit::Auditor::Run(audit::AuditSource::FromCsv(path), config)
              .ValueOrDie().Render();
      EXPECT_EQ(streamed, reference)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

TEST(ChunkedAuditTest, ErrorsMatchContiguousPathForEveryChunkSize) {
  // A non-binary prediction value in the last row: whichever chunk holds
  // it, the engine must surface the same row-independent message the
  // contiguous path produces.
  const std::string path = "chunked_test_errors.csv";
  std::string text = "g,p\n";
  for (size_t i = 0; i < 20; ++i) text += "a,1\n";
  text += "b,2\n";
  WriteText(path, text);
  Table table = data::ReadCsvString(text).ValueOrDie();
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "p";
  const std::string reference =
      audit::Auditor::Run(audit::AuditSource::FromTable(table), config)
          .status().message();
  ASSERT_FALSE(reference.empty());
  for (size_t chunk_rows : {size_t{3}, size_t{8}, size_t{21}}) {
    AuditConfig chunked = config;
    chunked.chunk_rows = chunk_rows;
    EXPECT_EQ(audit::Auditor::Run(audit::AuditSource::FromCsv(path), chunked)
                  .status().message(),
              reference)
        << "chunk_rows=" << chunk_rows;
  }
  // Empty input: the zero-chunk stream reports the same error as the
  // one-chunk table.
  WriteText(path, "g,p\n");
  Table empty = data::ReadCsvString("g,p\n").ValueOrDie();
  const std::string empty_reference =
      audit::Auditor::Run(audit::AuditSource::FromTable(empty), config)
          .status().message();
  AuditConfig chunked = config;
  chunked.chunk_rows = 4;
  EXPECT_EQ(audit::Auditor::Run(audit::AuditSource::FromCsv(path), chunked)
                .status().message(),
            empty_reference);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Subgroup audit.

std::string MakeSubgroupCsv(size_t rows, uint64_t seed) {
  const char* values[] = {"x", "y", "z"};
  Rng rng(seed);
  std::string text = "a1,a2,a3,pred\n";
  for (size_t i = 0; i < rows; ++i) {
    for (size_t a = 0; a < 3; ++a) {
      text += values[rng.UniformInt(3)];
      text += ',';
    }
    text += rng.Bernoulli(0.4) ? '1' : '0';
    text += '\n';
  }
  return text;
}

void ExpectSameFindings(const SubgroupAuditResult& got,
                        const SubgroupAuditResult& want) {
  EXPECT_EQ(got.subgroups_examined, want.subgroups_examined);
  EXPECT_EQ(got.subgroups_skipped_small, want.subgroups_skipped_small);
  EXPECT_EQ(got.any_violation, want.any_violation);
  ASSERT_EQ(got.findings.size(), want.findings.size());
  for (size_t i = 0; i < got.findings.size(); ++i) {
    EXPECT_EQ(got.findings[i].subgroup.conditions,
              want.findings[i].subgroup.conditions) << "finding " << i;
    EXPECT_EQ(got.findings[i].count, want.findings[i].count);
    EXPECT_EQ(got.findings[i].selection_rate,
              want.findings[i].selection_rate);
    EXPECT_EQ(got.findings[i].gap, want.findings[i].gap);
    EXPECT_EQ(got.findings[i].weighted_gap, want.findings[i].weighted_gap);
  }
}

TEST(ChunkedSubgroupTest, MatchesRowwiseOracle) {
  Table table = data::ReadCsvString(MakeSubgroupCsv(400, 41)).ValueOrDie();
  const std::vector<std::string> attrs = {"a1", "a2", "a3"};
  SubgroupAuditOptions options;
  options.max_depth = 3;
  options.min_support = 5;
  const SubgroupAuditResult oracle =
      audit::AuditSubgroupsRowwise(table, attrs, "pred", options)
          .ValueOrDie();
  ExpectSameFindings(
      audit::AuditSubgroups(table, attrs, "pred", options).ValueOrDie(),
      oracle);
  EXPECT_EQ(
      audit::AuditSubgroups(table, {}, "pred", options).status().message(),
      "AuditSubgroups: no attribute columns");
}

// ---------------------------------------------------------------------------
// Chunk boundaries seen through the engine: every streamed chunk layout
// must give the one-chunk table outcome, result or error.

std::string AuditOutcome(const audit::AuditSource& source,
                         const AuditConfig& config) {
  Result<AuditResult> result = audit::Auditor::Run(source, config);
  return result.ok() ? result.ValueOrDie().Render()
                     : result.status().ToString();
}

std::string AuditOutcome(const Table& table, const AuditConfig& config) {
  return AuditOutcome(audit::AuditSource::FromTable(table), config);
}

std::string SubgroupOutcome(const Table& table,
                            const std::vector<std::string>& attrs,
                            const SubgroupAuditOptions& options) {
  Result<SubgroupAuditResult> result =
      audit::AuditSubgroups(table, attrs, "p", options);
  if (!result.ok()) return result.status().ToString();
  const SubgroupAuditResult& audit = result.ValueOrDie();
  std::string out = std::to_string(audit.subgroups_examined) + " " +
                    std::to_string(audit.subgroups_skipped_small) + " " +
                    (audit.any_violation ? "violation" : "clear") + "\n";
  for (const audit::SubgroupFinding& finding : audit.findings) {
    out += finding.subgroup.ToString() + " " + std::to_string(finding.count) +
           " " + FormatDouble(finding.selection_rate, 17) + " " +
           FormatDouble(finding.gap, 17) + " " +
           FormatDouble(finding.weighted_gap, 17) + "\n";
  }
  return out;
}

TEST(ChunkBoundaryTest, BoundarySizesMatchWholeTable) {
  // 0, 1, chunk-1, chunk, chunk+1, and 3*chunk+7 rows at chunk size 8.
  const std::string path = "chunked_test_boundary.csv";
  const std::vector<std::string> attrs = {"g", "st"};
  SubgroupAuditOptions subgroup_options;
  subgroup_options.min_support = 1;
  for (size_t rows : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                      size_t{31}}) {
    const std::string text = MakeAuditCsv(rows, 11);
    WriteText(path, text);
    Table table = data::ReadCsvString(text).ValueOrDie();
    ASSERT_EQ(table.num_rows(), rows);
    const std::string audit_reference =
        AuditOutcome(table, FullAuditConfig());
    const std::string subgroup_reference =
        SubgroupOutcome(table, attrs, subgroup_options);
    if (rows == 0) {
      // The zero-row table keeps its schema; both audits reject it.
      ASSERT_TRUE(table.schema().HasField("g"));
      EXPECT_EQ(audit_reference, "invalid argument: MetricInput: empty input");
      EXPECT_EQ(subgroup_reference,
                "invalid argument: AuditSubgroups: empty table");
    } else {
      EXPECT_EQ(subgroup_reference.find("invalid argument"),
                std::string::npos)
          << subgroup_reference;
    }
    for (size_t threads : {size_t{1}, size_t{2}}) {
      AuditConfig config = FullAuditConfig();
      config.chunk_rows = 8;
      config.num_threads = threads;
      EXPECT_EQ(AuditOutcome(audit::AuditSource::FromCsv(path), config),
                audit_reference)
          << "rows=" << rows << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

TEST(ChunkBoundaryTest, NullsStraddlingChunkEdges) {
  // Nulls at rows 6..9 straddle the 8-row chunk boundary: the last two
  // rows of chunk 0 and the first two of chunk 1.
  const std::string path = "chunked_test_nulls.csv";
  std::string text = "g,x,p\n";
  for (size_t i = 0; i < 12; ++i) {
    const bool null_row = i >= 6 && i <= 9;
    text += null_row ? "" : (i % 2 == 0 ? "a" : "b");
    text += ",";
    text += null_row ? "" : std::to_string(i);
    text += i % 3 == 0 ? ",1\n" : ",0\n";
  }
  WriteText(path, text);
  Table table = data::ReadCsvString(text).ValueOrDie();
  ASSERT_EQ(table.GetColumn("g").ValueOrDie()->null_count(), 4u);
  ASSERT_EQ(table.GetColumn("x").ValueOrDie()->null_count(), 4u);
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "p";
  const std::string audit_reference = AuditOutcome(table, config);
  EXPECT_EQ(audit_reference,
            "invalid argument: column 'g' has nulls; audits require "
            "explicit missing-value handling upstream");
  for (size_t chunk_rows : {size_t{1}, size_t{4}, size_t{7}, size_t{8},
                            size_t{9}, size_t{16}}) {
    AuditConfig chunked = config;
    chunked.chunk_rows = chunk_rows;
    EXPECT_EQ(AuditOutcome(audit::AuditSource::FromCsv(path), chunked),
              audit_reference)
        << "chunk_rows=" << chunk_rows;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// A schema guess the file proves wrong, and a defect past the first chunks:
// the streamed audit reads every chunk under the guessed schema first.

/// The lines of `text`, without their newlines.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  for (size_t end = text.find('\n'); end != std::string::npos;
       begin = end + 1, end = text.find('\n', begin)) {
    lines.push_back(text.substr(begin, end - begin));
  }
  return lines;
}

/// MakeAuditCsv's rows with a 600-byte pad column, so the first read
/// block holds only ~90 of them, and the score printed as the integer 0
/// or 1 in the first `int_rows`: the schema guessed from that block reads
/// the score as int64 until a later row shows a double.
std::string MakePaddedAuditCsv(size_t rows, size_t int_rows, uint64_t seed) {
  const std::vector<std::string> lines = Lines(MakeAuditCsv(rows, seed));
  const std::string pad(600, 'q');
  std::string text = lines[0] + ",pad\n";
  for (size_t r = 1; r < lines.size(); ++r) {
    std::string line = lines[r];
    if (r <= int_rows) {
      const size_t comma = line.rfind(',');
      const double score = std::stod(line.substr(comma + 1));
      line = line.substr(0, comma + 1) + (score < 0.5 ? "0" : "1");
    }
    text += line + "," + pad + "\n";
  }
  return text;
}

TEST(ChunkedAuditTest, WrongGuessStreamEqualsTheTableAudit) {
  const std::string path = "chunked_test_wrong_guess.csv";
  const std::string text = MakePaddedAuditCsv(300, 150, 21);
  WriteText(path, text);
  const Table table = data::ReadCsvString(text).ValueOrDie();
  ASSERT_EQ(table.schema().field(4).type, data::DataType::kDouble);
  const std::string reference =
      AuditOutcome(audit::AuditSource::FromTable(table), FullAuditConfig());
  ASSERT_EQ(reference.find("invalid argument"), std::string::npos)
      << reference;
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  for (size_t chunk_rows : {size_t{7}, size_t{977}, size_t{0}}) {
    std::string reference_dump;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      obs::ResetAll();
      AuditConfig config = FullAuditConfig();
      config.chunk_rows = chunk_rows;
      config.num_threads = threads;
      EXPECT_EQ(AuditOutcome(audit::AuditSource::FromCsv(path), config),
                reference)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
      EXPECT_GT(obs::GetCounter("csv.chunks_reparsed")->Value(), 0u);
      const std::string dump = obs::ExportJson();
      if (threads == 1) reference_dump = dump;
      EXPECT_EQ(dump, reference_dump)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
    }
  }
  obs::SetEnabled(was_enabled);
  std::remove(path.c_str());
}

TEST(ChunkedAuditTest, LateDefectGivesTheSameErrorAndObsDumpOnAnyThreads) {
  // Data row 150 lacks its score. Every chunk is read whatever the
  // thread count, so the probes the readers bump match too.
  const std::string path = "chunked_test_late_defect.csv";
  std::vector<std::string> lines = Lines(MakeAuditCsv(200, 23));
  lines[151] = lines[151].substr(0, lines[151].rfind(','));
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  WriteText(path, text);
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  std::string reference_dump;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    obs::ResetAll();
    AuditConfig config = FullAuditConfig();
    config.chunk_rows = 7;
    config.num_threads = threads;
    EXPECT_EQ(AuditOutcome(audit::AuditSource::FromCsv(path), config),
              "invalid argument: CSV: row 151 has 4 fields, expected 5")
        << "threads=" << threads;
    const std::string dump = obs::ExportJson();
    if (threads == 1) reference_dump = dump;
    EXPECT_EQ(dump, reference_dump) << "threads=" << threads;
  }
  obs::SetEnabled(was_enabled);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Key columns of every type: the chunk tally keys rows by ExtractKeys
// codes, which must give the contiguous audit for string, int64 and bool
// group and strata columns alike.

/// Rows with string, int64 and bool versions of a group and a stratum.
std::string MakeTypedKeyCsv(size_t rows, uint64_t seed) {
  const char* names[] = {"north", "south", "east"};
  const char* ints[] = {"10", "-3", "20"};
  const char* bools[] = {"true", "false", "true"};
  Rng rng(seed);
  std::string text = "gs,gi,gb,ss,si,sb,p,y\n";
  for (size_t i = 0; i < rows; ++i) {
    const size_t g = static_cast<size_t>(rng.UniformInt(3));
    const size_t st = static_cast<size_t>(rng.UniformInt(3));
    text += std::string(names[g]) + "," + ints[g] + "," + bools[g] + "," +
            names[st] + "," + ints[st] + "," + bools[st] + ",";
    text += rng.Bernoulli(0.3 + 0.2 * static_cast<double>(g)) ? "1," : "0,";
    text += rng.Bernoulli(0.5) ? "1\n" : "0\n";
  }
  return text;
}

TEST(ChunkedAuditTest, KeyColumnsOfEveryTypeMatchAcrossChunkLayouts) {
  const std::string path = "chunked_test_typed_keys.csv";
  const std::string text = MakeTypedKeyCsv(2500, 41);
  WriteText(path, text);
  Table table = data::ReadCsvString(text).ValueOrDie();
  ASSERT_EQ(table.schema().ToString(),
            "gs:string, gi:int64, gb:bool, ss:string, si:int64, sb:bool, "
            "p:int64, y:int64");
  for (const char* group : {"gs", "gi", "gb"}) {
    for (const std::vector<std::string>& strata :
         {std::vector<std::string>{"ss"}, {"si"}, {"sb"},
          {"ss", "si", "sb"}}) {
      AuditConfig config;
      config.protected_column = group;
      config.prediction_column = "p";
      config.label_column = "y";
      config.strata_columns = strata;
      config.min_stratum_size = 5;
      const std::string reference = AuditOutcome(table, config);
      EXPECT_NE(reference.find("conditional"), std::string::npos)
          << reference;
      for (size_t chunk_rows : {size_t{1}, size_t{977}, size_t{0}}) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          AuditConfig chunked = config;
          chunked.chunk_rows = chunk_rows;
          chunked.num_threads = threads;
          EXPECT_EQ(AuditOutcome(audit::AuditSource::FromCsv(path), chunked),
                    reference)
              << group << " strata " << strata.size() << ":" << strata[0]
              << " chunk_rows=" << chunk_rows << " threads=" << threads;
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ChunkedAuditTest, NullKeysKeepTheirErrorTextInEveryChunkLayout) {
  // Column g has a null at row 1200 and st one at row 700; h has none.
  const std::string path = "chunked_test_null_keys.csv";
  std::string text = "g,st,h,p\n";
  for (size_t i = 0; i < 1500; ++i) {
    text += i == 1200 ? "" : (i % 2 == 0 ? "a" : "b");
    text += i == 700 ? "," : (i % 3 == 0 ? ",x" : ",y");
    text += i % 4 == 0 ? ",u" : ",v";
    text += i % 5 == 0 ? ",1\n" : ",0\n";
  }
  WriteText(path, text);
  Table table = data::ReadCsvString(text).ValueOrDie();
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "p";
  AuditConfig stratified = config;
  stratified.protected_column = "st";
  stratified.strata_columns = {"g"};
  AuditConfig strata_null = config;
  strata_null.protected_column = "h";
  strata_null.strata_columns = {"st"};
  const std::string g_nulls =
      "invalid argument: column 'g' has nulls; audits require "
      "explicit missing-value handling upstream";
  const std::string st_nulls =
      "invalid argument: column 'st' has nulls; audits require "
      "explicit missing-value handling upstream";
  EXPECT_EQ(AuditOutcome(table, config), g_nulls);
  EXPECT_EQ(AuditOutcome(table, stratified), st_nulls);
  EXPECT_EQ(AuditOutcome(table, strata_null), st_nulls);
  const audit::AuditSource streamed = audit::AuditSource::FromCsv(path);
  for (size_t chunk_rows : {size_t{1}, size_t{977}, size_t{0}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string where = "chunk_rows=" + std::to_string(chunk_rows) +
                                " threads=" + std::to_string(threads);
      for (AuditConfig* c : {&config, &stratified, &strata_null}) {
        c->chunk_rows = chunk_rows;
        c->num_threads = threads;
      }
      EXPECT_EQ(AuditOutcome(streamed, config), g_nulls) << where;
      EXPECT_EQ(AuditOutcome(streamed, stratified), st_nulls) << where;
      EXPECT_EQ(AuditOutcome(streamed, strata_null), st_nulls) << where;
    }
  }
  std::remove(path.c_str());
}

TEST(ChunkedAuditTest, WideStrataTallyInMemoryBoundedByRows) {
  // Three strata columns of ~5k values each over 20k rows: the tuple
  // space is ~1.25e11, so a tally sized by the product could not run.
  constexpr size_t kRows = 20000;
  const std::string path = "chunked_test_wide_strata.csv";
  Rng rng(53);
  std::string text = "g,p,s1,s2,s3\n";
  for (size_t i = 0; i < kRows; ++i) {
    text += rng.Bernoulli(0.5) ? "a," : "b,";
    text += rng.Bernoulli(0.4) ? "1" : "0";
    for (int c = 0; c < 3; ++c) {
      text += ",v" + std::to_string(rng.UniformInt(5000));
    }
    text += '\n';
  }
  WriteText(path, text);
  Table table = data::ReadCsvString(text).ValueOrDie();
  for (const char* name : {"s1", "s2", "s3"}) {
    EXPECT_GT(table.GetColumn(name).ValueOrDie()->dictionary().num_keys(),
              4500u)
        << name;
  }
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "p";
  config.strata_columns = {"s1", "s2", "s3"};

  // The tally over strings: StrataFromTable's keys, row by row.
  const std::vector<std::string> strata =
      audit::StrataFromTable(table, config.strata_columns).ValueOrDie();
  const metrics::MetricInput input =
      audit::MetricInputFromTable(table, "g", "p", "").ValueOrDie();
  stats::StratifiedCountsAccumulator expected;
  for (size_t i = 0; i < kRows; ++i) {
    expected[strata[i]][input.groups[i]] +=
        stats::GroupCounts::Row(input.predictions[i]);
  }
  ASSERT_GT(expected.num_keys(), kRows * 9 / 10);

  // The one-chunk table tally, then the tally folded over streamed
  // chunks.
  audit::MergedPartials whole;
  whole.Fold(audit::ProcessChunk(table, config, ""));
  ASSERT_TRUE(whole.FirstError().ok()) << whole.FirstError().ToString();
  EXPECT_TRUE(whole.strata_counts() == expected);
  for (size_t chunk_rows : {size_t{977}, kRows}) {
    data::CsvChunkReader::Options options;
    options.chunk_rows = chunk_rows;
    data::CsvChunkReader reader =
        data::CsvChunkReader::Make(path, options).ValueOrDie();
    audit::MergedPartials merged;
    for (;;) {
      std::optional<Table> chunk = reader.Next().ValueOrDie();
      if (!chunk.has_value()) break;
      merged.Fold(audit::ProcessChunk(*chunk, config, ""));
    }
    ASSERT_TRUE(merged.FirstError().ok()) << merged.FirstError().ToString();
    EXPECT_TRUE(merged.strata_counts() == expected)
        << "chunk_rows=" << chunk_rows;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Radix sort tier and the unsorted distance paths.

TEST(RadixSortTest, MatchesStdSortIncludingEdgeValues) {
  Rng rng(57);
  std::vector<double> values;
  // Above kRadixSortMinSize so SortDoubles takes the radix tier.
  for (size_t i = 0; i < 3000; ++i) {
    values.push_back(rng.Normal() * 1e6);
  }
  const double kEdges[] = {0.0, -0.0, 1e-310, -1e-310,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(), 42.0,
                           42.0, 42.0};
  values.insert(values.end(), std::begin(kEdges), std::end(kEdges));
  std::vector<double> expected = values;
  std::sort(expected.begin(), expected.end());
  std::vector<double> radix = values;
  stats::RadixSortDoubles(radix);
  std::vector<double> tiered = values;
  stats::SortDoubles(tiered);
  ASSERT_EQ(radix.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // Bitwise-compatible comparison: -0.0 and 0.0 are interchangeable for
    // std::sort, so compare by value not by bits.
    EXPECT_EQ(radix[i], expected[i]) << "index " << i;
    EXPECT_EQ(tiered[i], expected[i]) << "index " << i;
  }
}

TEST(RadixSortTest, NansLandDeterministicallyAtTheEnds) {
  std::vector<double> values = {3.0,
                                std::copysign(
                                    std::numeric_limits<double>::quiet_NaN(),
                                    -1.0),
                                -1.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                2.0};
  stats::RadixSortDoubles(values);
  EXPECT_TRUE(std::isnan(values.front()));
  EXPECT_TRUE(std::signbit(values.front()));
  EXPECT_TRUE(std::isnan(values.back()));
  EXPECT_FALSE(std::signbit(values.back()));
  EXPECT_EQ(values[1], -1.0);
  EXPECT_EQ(values[2], 2.0);
  EXPECT_EQ(values[3], 3.0);
}

TEST(DistanceTierTest, UnsortedW1AndKsEqualPresortedOracle) {
  Rng rng(61);
  // n above the radix threshold so the unsorted path exercises the new
  // tier; the presorted calls are the equality oracle.
  std::vector<double> x;
  std::vector<double> y;
  for (size_t i = 0; i < 3000; ++i) x.push_back(rng.Normal());
  for (size_t i = 0; i < 2500; ++i) y.push_back(rng.Normal(0.3, 1.2));
  std::vector<double> xs = x;
  std::vector<double> ys = y;
  std::sort(xs.begin(), xs.end());
  std::sort(ys.begin(), ys.end());
  EXPECT_EQ(stats::Wasserstein1Samples(x, y).ValueOrDie(),
            stats::Wasserstein1Presorted(xs, ys).ValueOrDie());
  EXPECT_EQ(stats::KolmogorovSmirnov(x, y).ValueOrDie(),
            stats::KolmogorovSmirnovPresorted(xs, ys).ValueOrDie());
}

}  // namespace
}  // namespace fairlaw
