#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "data/csv.h"
#include "obs/obs.h"
#include "stats/rng.h"
#include "support/csv_oracle.h"

namespace fairlaw::data {
namespace {

TEST(CsvTest, ParsesTypesFromHeaderedText) {
  std::string text =
      "name,age,score,active\n"
      "ann,30,1.5,true\n"
      "bob,40,2.5,false\n";
  Table table = ReadCsvString(text).ValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.schema().field(0).type, DataType::kString);
  EXPECT_EQ(table.schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(table.schema().field(2).type, DataType::kDouble);
  EXPECT_EQ(table.schema().field(3).type, DataType::kBool);
  EXPECT_EQ(table.GetColumn("name").ValueOrDie()->GetString(1).ValueOrDie(),
            "bob");
  EXPECT_EQ(table.GetColumn("age").ValueOrDie()->GetInt64(0).ValueOrDie(),
            30);
}

TEST(CsvTest, HeaderlessGetsGeneratedNames) {
  Table table = ReadCsvString("1,2\n3,4\n", {.has_header = false})
                    .ValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_TRUE(table.schema().HasField("c0"));
  EXPECT_TRUE(table.schema().HasField("c1"));
}

TEST(CsvTest, NullTokensBecomeNulls) {
  std::string text = "x,y\n1.5,a\n,b\nNA,c\n";
  Table table = ReadCsvString(text).ValueOrDie();
  const Column* x = table.GetColumn("x").ValueOrDie();
  EXPECT_EQ(x->type(), DataType::kDouble);
  EXPECT_EQ(x->null_count(), 2u);
  EXPECT_DOUBLE_EQ(x->GetDouble(0).ValueOrDie(), 1.5);
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndEscapes) {
  std::string text =
      "a,b\n"
      "\"x,y\",\"he said \"\"hi\"\"\"\n";
  Table table = ReadCsvString(text).ValueOrDie();
  EXPECT_EQ(table.GetColumn("a").ValueOrDie()->GetString(0).ValueOrDie(),
            "x,y");
  EXPECT_EQ(table.GetColumn("b").ValueOrDie()->GetString(0).ValueOrDie(),
            "he said \"hi\"");
}

TEST(CsvTest, CrLfLineEndings) {
  Table table = ReadCsvString("a\r\n1\r\n2\r\n").ValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(CsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());          // ragged row
  EXPECT_FALSE(ReadCsvString("a\n\"unterminated\n").ok());  // open quote
}

TEST(CsvTest, MixedIntAndDoubleColumnBecomesDouble) {
  Table table = ReadCsvString("x\n1\n2.5\n").ValueOrDie();
  EXPECT_EQ(table.schema().field(0).type, DataType::kDouble);
}

TEST(CsvTest, CustomDelimiter) {
  Table table =
      ReadCsvString("a;b\n1;2\n", {.delimiter = ';'}).ValueOrDie();
  EXPECT_EQ(table.num_columns(), 2u);
  EXPECT_EQ(table.GetColumn("b").ValueOrDie()->GetInt64(0).ValueOrDie(), 2);
}

TEST(CsvTest, RoundTripPreservesData) {
  std::string text =
      "name,score,ok\n"
      "ann,1.500000,true\n"
      "\"b,ob\",2.250000,false\n";
  Table table = ReadCsvString(text).ValueOrDie();
  std::string written = WriteCsvString(table).ValueOrDie();
  Table reparsed = ReadCsvString(written).ValueOrDie();
  EXPECT_EQ(reparsed.num_rows(), table.num_rows());
  EXPECT_EQ(
      reparsed.GetColumn("name").ValueOrDie()->GetString(1).ValueOrDie(),
      "b,ob");
  EXPECT_DOUBLE_EQ(
      reparsed.GetColumn("score").ValueOrDie()->GetDouble(1).ValueOrDie(),
      2.25);
}

TEST(CsvTest, RoundTripPreservesNulls) {
  Table table = ReadCsvString("x,y\n1,a\n,b\n").ValueOrDie();
  std::string written = WriteCsvString(table).ValueOrDie();
  Table reparsed = ReadCsvString(written).ValueOrDie();
  EXPECT_EQ(reparsed.GetColumn("x").ValueOrDie()->null_count(), 1u);
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/fairlaw_csv_test.csv";
  Table table = ReadCsvString("a,b\n1,x\n2,y\n").ValueOrDie();
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  Table read = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(read.num_rows(), 2u);
  std::remove(path.c_str());
  EXPECT_TRUE(ReadCsvFile("/nonexistent/nope.csv").status().IsIOError());
}

/// Writes `text` to a fresh temp file and returns its path.
std::string WriteTempCsv(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  return path;
}

TEST(CsvTest, SingleDefectErrorsArePinnedOnEveryReader) {
  struct Case {
    const char* label;
    std::string text;
    bool has_header;
    std::string expected;
  };
  const std::vector<Case> cases = {
      {"empty", "", true, "invalid argument: CSV: input has no rows"},
      {"ragged with header", "a,b\n1,2\n3\n", true,
       "invalid argument: CSV: row 2 has 1 fields, expected 2"},
      {"ragged without header", "1,2\n3\n4,5\n", false,
       "invalid argument: CSV: row 1 has 1 fields, expected 2"},
      {"unterminated quote", "a,b\n1,\"x\n", true,
       "invalid argument: CSV: unterminated quoted field"},
      {"duplicate header", "a,b,a\n1,2,3\n", true,
       "invalid argument: Schema: duplicate field name 'a'"},
  };
  for (const Case& c : cases) {
    CsvOptions options;
    options.has_header = c.has_header;
    EXPECT_EQ(ReadCsvString(c.text, options).status().ToString(), c.expected)
        << c.label;
    const std::string path = WriteTempCsv("fairlaw_csv_defect.csv", c.text);
    EXPECT_EQ(ReadCsvFile(path, options).status().ToString(), c.expected)
        << c.label;
    CsvChunkReader::Options reader_options;
    reader_options.csv = options;
    EXPECT_EQ(CsvChunkReader::Make(path, reader_options).status().ToString(),
              c.expected)
        << c.label;
    std::remove(path.c_str());
  }
}

TEST(CsvTest, FirstDefectInFileOrderWins) {
  // A ragged row 1 precedes an unterminated quote in row 2: every reader
  // reports the ragged row, whichever check its scan would reach first.
  const std::string text = "a,b\n1\n2,\"x\n";
  const std::string expected =
      "invalid argument: CSV: row 1 has 1 fields, expected 2";
  EXPECT_EQ(ReadCsvString(text).status().ToString(), expected);
  const std::string path = WriteTempCsv("fairlaw_csv_first_defect.csv", text);
  EXPECT_EQ(ReadCsvFile(path).status().ToString(), expected);
  EXPECT_EQ(CsvChunkReader::Make(path, {}).status().ToString(), expected);
  std::remove(path.c_str());
}

/// The pooled whole-table read of `text` at `chunk_rows`-row chunks.
Result<Table> ReadPooled(const std::string& text, size_t chunk_rows) {
  const std::string path = WriteTempCsv("fairlaw_csv_pooled.csv", text);
  CsvChunkReader::Options options;
  options.chunk_rows = chunk_rows;
  Result<Table> table = CsvChunkReader::ReadTable(path, options, 4);
  std::remove(path.c_str());
  return table;
}

TEST(CsvPooledReadTest, LateFirstSeenStringsGetTheSerialCodes) {
  // c and d are first seen in the last 3-row chunk, whose local codes
  // (c 0, b 1, d 2) the merge renumbers.
  const std::string text = "g,x\na,1\nb,2\na,3\nc,4\nb,5\nd,6\n";
  const Table whole = ReadCsvString(text).ValueOrDie();
  for (size_t chunk_rows : {size_t{1}, size_t{3}}) {
    const Table pooled = ReadPooled(text, chunk_rows).ValueOrDie();
    EXPECT_EQ(RowsDiffer(whole, 0, pooled), "") << chunk_rows;
    const Column& column = pooled.column(0);
    EXPECT_EQ(column.dictionary().keys(),
              (std::vector<std::string>{"a", "b", "c", "d"}));
    const std::span<const uint32_t> codes = column.Codes();
    EXPECT_EQ(std::vector<uint32_t>(codes.begin(), codes.end()),
              (std::vector<uint32_t>{0, 1, 0, 2, 1, 3}))
        << chunk_rows;
  }
}

TEST(CsvPooledReadTest, NullStringCellsOnAChunkBoundary) {
  // Rows 3 and 4 (NA, empty) straddle the first 3-row chunk boundary.
  const std::string text = "g,x\na,1\nb,2\nNA,3\n,4\nc,5\na,6\n";
  const Table whole = ReadCsvString(text).ValueOrDie();
  for (size_t chunk_rows : {size_t{1}, size_t{3}}) {
    const Table pooled = ReadPooled(text, chunk_rows).ValueOrDie();
    EXPECT_EQ(RowsDiffer(whole, 0, pooled), "") << chunk_rows;
    const Column& column = pooled.column(0);
    EXPECT_EQ(column.null_count(), 2u);
    EXPECT_EQ(column.dictionary().keys(),
              (std::vector<std::string>{"a", "b", "c"}));
    const std::span<const uint32_t> codes = column.Codes();
    EXPECT_EQ(std::vector<uint32_t>(codes.begin(), codes.end()),
              (std::vector<uint32_t>{0, 1, Column::kNullCode,
                                     Column::kNullCode, 2, 0}))
        << chunk_rows;
  }
}

TEST(CsvPooledReadTest, LowestChunkDefectWins) {
  // A ragged row in the second 3-row chunk ahead of an unterminated
  // quote in the third.
  const std::string text = "a,b\n1,2\n3,4\n5,6\n7\n8,9\n1,2\n3,\"x\n";
  const std::string expected =
      "invalid argument: CSV: row 4 has 1 fields, expected 2";
  EXPECT_EQ(ReadCsvString(text).status().ToString(), expected);
  for (size_t chunk_rows : {size_t{1}, size_t{3}}) {
    EXPECT_EQ(ReadPooled(text, chunk_rows).status().ToString(), expected)
        << chunk_rows;
  }
}

TEST(CsvPooledReadTest, ProbesAreTheSerialReadsForEveryThreadCount) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  std::string text = "g,x\n";
  for (int i = 0; i < 3 * static_cast<int>(kDefaultChunkRows); ++i) {
    text += "g" + std::to_string(i % 7) + "," + std::to_string(i) + "\n";
  }
  const std::string path = WriteTempCsv("fairlaw_csv_pooled_probes.csv", text);
  obs::ResetAll();
  const Table serial = ReadCsvFile(path).ValueOrDie();
  const std::string reference = obs::ExportJson();
  EXPECT_NE(reference.find("read_csv"), std::string::npos);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    obs::ResetAll();
    const Table pooled = ReadCsvFile(path, {}, threads).ValueOrDie();
    EXPECT_EQ(obs::ExportJson(), reference) << threads;
    EXPECT_EQ(RowsDiffer(serial, 0, pooled), "") << threads;
  }
  std::remove(path.c_str());
  obs::SetEnabled(was_enabled);
}

TEST(CsvTest, ReadCsvFileCountsBytesAndRows) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const std::string text = "a,b\n1,x\n2,y\n\n3,z\n";
  const std::string path = WriteTempCsv("fairlaw_csv_counters.csv", text);
  obs::Counter* bytes = obs::GetCounter("csv.bytes_read");
  obs::Counter* rows = obs::GetCounter("csv.rows_loaded");
  const uint64_t bytes_before = bytes->Value();
  const uint64_t rows_before = rows->Value();
  ASSERT_TRUE(ReadCsvFile(path).ok());
  EXPECT_EQ(bytes->Value() - bytes_before, text.size());
  EXPECT_EQ(rows->Value() - rows_before, 3u);
  std::remove(path.c_str());
  obs::SetEnabled(was_enabled);
}


// ---------------------------------------------------------------------------
// Differential test: every reader against the byte-at-a-time oracle.

constexpr size_t kReadBlock = size_t{1} << 16;  // the readers' read size

/// Seeded CSV text of more than three read blocks covering every scanner
/// and classifier path. Three crafted rows land a "" escape, a CRLF row
/// end and a CRLF inside quotes exactly on the first three block
/// boundaries; the last row has no newline. With `ragged_at` > 0 the
/// first row past that byte offset lacks its last field.
std::string GenerateCsv(uint64_t seed, char delim, bool header,
                        size_t ragged_at = 0) {
  stats::Rng rng(seed);
  auto pick = [&rng](const std::vector<std::string>& options) {
    return options[rng.UniformInt(options.size())];
  };
  const std::string d(1, delim);
  const std::vector<std::string> nulls = {"", "NA", " NA ", "null", " NULL"};
  std::string text;
  if (header) {
    text += "id" + d + " big " + d + "rate" + d + "active" + d + "flag" + d +
            "\"co" + d + "de\"" + d + "empty" + d + "note\n";
  }
  size_t row = 0;
  bool ragged_done = false;
  // Block boundary -> kind of crafted row: 0 = "" escape straddling it,
  // 1 = CRLF row end straddling it, 2 = CRLF inside quotes straddling it.
  size_t next_craft = 0;
  const size_t boundaries[3] = {kReadBlock, 2 * kReadBlock, 3 * kReadBlock};
  while (text.size() < 3 * kReadBlock + 20000) {
    ++row;
    std::string prefix;
    // id: int64, sometimes padded or null.
    const uint64_t id_kind = rng.UniformInt(10);
    prefix += id_kind == 0 ? pick(nulls)
              : id_kind == 1 ? " " + std::to_string(row) + " "
                             : std::to_string(row);
    // big: int64 until one overflowing value turns the column double.
    prefix += d;
    if (row == 1500) {
      prefix += "9223372036854775808";
    } else if (row == 7) {
      prefix += "-9223372036854775808";
    } else {
      prefix += std::to_string(static_cast<int64_t>(rng.Next() >> 2) -
                               (int64_t{1} << 60));
    }
    // rate: doubles, ints, exponents, padding, infinities.
    prefix += d + pick({"0.25", "-3", "1e-3", " 4.5 ", "inf", "-inf",
                        "12345.678", "7", "NA", "2.5E+10"});
    // active: mixed-case bools, 0/1 and nulls.
    prefix += d + pick({"tRuE", "FALSE", " true ", "0", "1", "", "False"});
    // flag: 0/1 ints with one "True", so int64 and double fail late and
    // the column resolves to bool.
    prefix += d + (row == 2000 ? std::string("True")
                               : std::string(rng.UniformInt(2) ? "1" : "0"));
    // "co,de": int-like until one text value makes it string.
    prefix += d + (row == 900 ? std::string("abc")
                              : pick({"007", "12", " 3", "-0", "NA"}));
    // empty: null tokens only.
    prefix += d + pick(nulls) + d;
    if (!ragged_done && ragged_at > 0 && text.size() > ragged_at) {
      ragged_done = true;
      prefix.pop_back();  // drop the last delimiter: one field short
      text += prefix + "\n";
      continue;
    }

    if (next_craft < 3 && text.size() + 400 >= boundaries[next_craft]) {
      const size_t kind = next_craft;
      const size_t opening = kind == 1 ? 0 : 1;
      const size_t pad = boundaries[kind] - 1 - text.size() - prefix.size() -
                         opening;
      const std::string filler(pad, 'p');
      if (kind == 0) {
        text += prefix + "\"" + filler + "\"\"tail\"\n";
      } else if (kind == 1) {
        text += prefix + filler + "\r\n";
      } else {
        text += prefix + "\"" + filler + "\r\nrest\"\n";
      }
      ++next_craft;
      continue;
    }

    // note: the last column, with every quoting form.
    const uint64_t note_kind = rng.UniformInt(12);
    std::string note;
    switch (note_kind) {
      case 0: note = "\"x" + d + "y\""; break;
      case 1: note = "\"he said \"\"hi\"\"\""; break;
      case 2: note = "\"line1\nline2\""; break;
      case 3: note = "\"a\r\nb\""; break;
      case 4: note = "\"cr\rx\""; break;
      case 5: note = "ab\"c" + d + "d\"e"; break;
      case 6: note = "  pad  "; break;
      case 7: note = "\"\""; break;
      default: note = "w" + std::to_string(rng.UniformInt(1000)); break;
    }
    text += prefix + note;
    text += rng.UniformInt(3) == 0 ? "\r\n" : "\n";
    if (rng.UniformInt(40) == 0) text += rng.UniformInt(2) ? "\n" : "\r\n";
  }
  // A final row without a newline.
  text += "1" + d + "2" + d + "3.5" + d + "true" + d + "0" + d + "x" + d +
          d + "\"last\"";
  return text;
}

/// Streams `path` in `chunk_rows`-row chunks and expects them to tile the
/// oracle's table.
void ExpectChunksMatchOracle(const Table& oracle, const std::string& path,
                             const CsvOptions& options, size_t chunk_rows,
                             const std::string& label) {
  CsvChunkReader::Options reader_options;
  reader_options.csv = options;
  reader_options.chunk_rows = chunk_rows;
  Result<CsvChunkReader> reader = CsvChunkReader::Make(path, reader_options);
  ASSERT_TRUE(reader.ok()) << label << ": " << reader.status().ToString();
  EXPECT_EQ(reader->num_rows(), oracle.num_rows()) << label;
  size_t offset = 0;
  for (;;) {
    Result<std::optional<Table>> chunk = reader->Next();
    ASSERT_TRUE(chunk.ok()) << label << ": " << chunk.status().ToString();
    if (!chunk->has_value()) break;
    const Table& table = **chunk;
    ASSERT_GT(table.num_rows(), 0u) << label;
    if (chunk_rows > 0) {
      ASSERT_LE(table.num_rows(), chunk_rows) << label;
    }
    ASSERT_EQ(RowsDiffer(oracle, offset, table), "") << label;
    offset += table.num_rows();
  }
  EXPECT_EQ(offset, oracle.num_rows()) << label;
}

/// Reads `path` whole on a 4-thread pool at 1- and 3-row chunks: the
/// table must equal `whole` (ReadCsvString's), or the read fail with
/// its exact error text.
void ExpectPooledReadsMatch(const Result<Table>& whole,
                            const std::string& path, const CsvOptions& options,
                            const std::string& label) {
  for (size_t chunk_rows : {size_t{1}, size_t{3}}) {
    const std::string pooled_label =
        label + " pooled chunk_rows=" + std::to_string(chunk_rows);
    CsvChunkReader::Options reader_options;
    reader_options.csv = options;
    reader_options.chunk_rows = chunk_rows;
    const Result<Table> pooled =
        CsvChunkReader::ReadTable(path, reader_options, 4);
    if (!whole.ok()) {
      EXPECT_EQ(pooled.status().ToString(), whole.status().ToString())
          << pooled_label;
      continue;
    }
    ASSERT_TRUE(pooled.ok()) << pooled_label << ": "
                             << pooled.status().ToString();
    EXPECT_EQ(pooled->num_rows(), whole->num_rows()) << pooled_label;
    EXPECT_EQ(RowsDiffer(*whole, 0, *pooled), "") << pooled_label;
  }
}

/// Reads `text` with the oracle, ReadCsvString and CsvChunkReader at
/// several chunk sizes, and whole on a pool; every reader must give the
/// oracle's table, or its exact error text. Returns the oracle's status.
Status ExpectReadersMatchOracle(const std::string& text,
                                const CsvOptions& options,
                                const std::string& label) {
  const Result<Table> oracle = ReadCsvOracle(text, options);
  const Result<Table> whole = ReadCsvString(text, options);
  if (!oracle.ok()) {
    EXPECT_EQ(whole.status().ToString(), oracle.status().ToString()) << label;
  } else if (whole.ok()) {
    EXPECT_EQ(whole->num_rows(), oracle->num_rows()) << label;
    EXPECT_EQ(RowsDiffer(*oracle, 0, *whole), "") << label << " ReadCsvString";
  } else {
    ADD_FAILURE() << label << ": " << whole.status().ToString();
  }

  const std::string path = WriteTempCsv("fairlaw_csv_diff.csv", text);
  for (size_t chunk_rows : {size_t{1}, size_t{977}, size_t{0}}) {
    const std::string chunk_label =
        label + " chunk_rows=" + std::to_string(chunk_rows);
    if (oracle.ok()) {
      ExpectChunksMatchOracle(*oracle, path, options, chunk_rows, chunk_label);
      continue;
    }
    CsvChunkReader::Options reader_options;
    reader_options.csv = options;
    reader_options.chunk_rows = chunk_rows;
    EXPECT_EQ(CsvChunkReader::Make(path, reader_options).status().ToString(),
              oracle.status().ToString())
        << chunk_label;
  }
  ExpectPooledReadsMatch(whole, path, options, label);
  std::remove(path.c_str());
  return oracle.status();
}

TEST(CsvDifferentialTest, GeneratedTextsMatchTheOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::string text = GenerateCsv(seed, ',', true);
    ASSERT_GT(text.size(), 200u * 1024u);
    ASSERT_EQ(text.substr(kReadBlock - 1, 2), "\"\"");
    ASSERT_EQ(text.substr(2 * kReadBlock - 1, 2), "\r\n");
    ASSERT_EQ(text.substr(3 * kReadBlock - 1, 2), "\r\n");
    const std::string label = "seed " + std::to_string(seed);
    ASSERT_TRUE(ExpectReadersMatchOracle(text, {}, label).ok()) << label;

    // The generator's column types must all show up.
    const Table oracle = ReadCsvOracle(text).ValueOrDie();
    const std::vector<DataType> types = {
        DataType::kInt64, DataType::kDouble, DataType::kDouble,
        DataType::kBool,  DataType::kBool,   DataType::kString,
        DataType::kString, DataType::kString};
    for (size_t c = 0; c < types.size(); ++c) {
      EXPECT_EQ(oracle.schema().field(c).type, types[c]) << label << " " << c;
    }
    EXPECT_EQ(oracle.schema().field(1).name, "big");
    EXPECT_EQ(oracle.schema().field(5).name, "co,de");
    EXPECT_EQ(oracle.column(6).null_count(), oracle.num_rows());
  }
}

TEST(CsvDifferentialTest, HeaderlessAndCustomDelimiterMatchTheOracle) {
  CsvOptions options;
  options.delimiter = ';';
  options.has_header = false;
  const std::string text = GenerateCsv(4, ';', false);
  ASSERT_TRUE(ExpectReadersMatchOracle(text, options, "headerless").ok());
}

TEST(CsvDifferentialTest, MutatedTextsGiveTheOracleError) {
  const std::string text = GenerateCsv(5, ',', true);
  // Cut inside the quoted field whose "" escape straddles the first
  // block boundary.
  const Status truncated = ExpectReadersMatchOracle(
      text.substr(0, kReadBlock - 1), {}, "truncated in quote");
  EXPECT_EQ(truncated.ToString(),
            "invalid argument: CSV: unterminated quoted field");
  // Cut between the two quotes of that escape: the quote closes at the
  // end of input and the row is complete.
  EXPECT_TRUE(
      ExpectReadersMatchOracle(text.substr(0, kReadBlock), {}, "cut at quote")
          .ok());
  // A row one field short past the second block.
  const std::string ragged = GenerateCsv(5, ',', true, 2 * kReadBlock + 5000);
  const Status status = ExpectReadersMatchOracle(ragged, {}, "ragged");
  EXPECT_NE(status.ToString().find("fields, expected 8"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Wrong guesses: the schema is guessed from the first read block's rows,
// so a type that changes after them is found only when the chunks' flags
// are folded, and the chunks are read again.

/// A header and `rows` rows of `cells(r)`, each ending in a 600-byte
/// `pad` cell, so the first read block holds only the first ~100 rows.
std::string PaddedCsv(const std::string& header, size_t rows,
                      const std::function<std::string(size_t)>& cells) {
  const std::string pad(600, 'p');
  std::string text = header + ",pad\n";
  for (size_t r = 0; r < rows; ++r) text += cells(r) + "," + pad + "\n";
  return text;
}

/// Streams `path` at `chunk_rows` on `threads` workers as the audit's
/// morsel loop reads it: every chunk once under the guessed schema, and
/// again under the resolved one only when ConfirmGuess says the guess
/// was wrong (*reparsed). Returns the chunks in file order, or the
/// lowest chunk's error.
Result<std::vector<Table>> StreamGuessed(const std::string& path,
                                         size_t chunk_rows, size_t threads,
                                         bool* reparsed) {
  CsvChunkReader::Options options;
  options.chunk_rows = chunk_rows;
  FAIRLAW_ASSIGN_OR_RETURN(CsvChunkReader reader,
                           CsvChunkReader::Scan(path, options));
  const size_t num_chunks = reader.num_chunks();
  const std::unique_ptr<ThreadPool> pool = MorselPool(threads, num_chunks);
  std::vector<Status> statuses(num_chunks);
  std::vector<std::optional<Table>> tables(num_chunks);
  auto for_each_chunk = [&](const std::function<void(size_t)>& read) {
    if (pool == nullptr) {
      for (size_t i = 0; i < num_chunks; ++i) read(i);
    } else {
      pool->ParallelFor(num_chunks, read);
    }
    for (const Status& status : statuses) FAIRLAW_RETURN_NOT_OK(status);
    return Status::OK();
  };
  *reparsed = false;
  if (reader.has_guess()) {
    FAIRLAW_RETURN_NOT_OK(for_each_chunk([&](size_t i) {
      Result<std::optional<Table>> chunk = reader.ReadGuessedChunk(i);
      statuses[i] = chunk.status();
      if (chunk.ok()) tables[i] = std::move(*chunk);
    }));
    FAIRLAW_ASSIGN_OR_RETURN(const bool held, reader.ConfirmGuess());
    *reparsed = !held;
  } else {
    FAIRLAW_RETURN_NOT_OK(reader.InferSchema(pool.get()));
    *reparsed = true;  // read under the inferred schema below
  }
  if (*reparsed) {
    FAIRLAW_RETURN_NOT_OK(for_each_chunk([&](size_t i) {
      Result<Table> chunk = reader.ReadChunk(i);
      statuses[i] = chunk.status();
      if (chunk.ok()) tables[i] = std::move(*chunk);
    }));
  }
  std::vector<Table> chunks;
  for (std::optional<Table>& table : tables) {
    if (!table.has_value()) {
      return Status::Internal("a chunk of a guess that held is missing");
    }
    chunks.push_back(std::move(*table));
  }
  return chunks;
}

/// Reads `text` through every path: the oracle differential (oracle,
/// ReadCsvString, Make/Next, pooled ReadTable), the guessed stream at
/// 1-, 3-, 977-row and default chunks on 1 and 4 threads, and ReadTable
/// on 1 and 4 threads. All give ReadCsvString's table, or its error. A
/// read that succeeds reads the chunks again exactly when `wrong_guess`,
/// and counts that in csv.chunks_reparsed the same way on every thread
/// count. Returns ReadCsvString's result.
Result<Table> ExpectEveryReadAgrees(const std::string& text, bool wrong_guess,
                                    const std::string& label) {
  const Status oracle_status = ExpectReadersMatchOracle(text, {}, label);
  Result<Table> whole = ReadCsvString(text);
  EXPECT_EQ(whole.status().ToString(), oracle_status.ToString()) << label;
  const std::string path = WriteTempCsv("fairlaw_csv_guess.csv", text);
  for (size_t chunk_rows : {size_t{1}, size_t{3}, size_t{977}, size_t{0}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string stream_label =
          label + " stream chunk_rows=" + std::to_string(chunk_rows) +
          " threads=" + std::to_string(threads);
      bool reparsed = false;
      const Result<std::vector<Table>> chunks =
          StreamGuessed(path, chunk_rows, threads, &reparsed);
      if (!whole.ok()) {
        EXPECT_EQ(chunks.status().ToString(), whole.status().ToString())
            << stream_label;
        continue;
      }
      if (!chunks.ok()) {
        ADD_FAILURE() << stream_label << ": " << chunks.status().ToString();
        continue;
      }
      EXPECT_EQ(reparsed, wrong_guess) << stream_label;
      size_t offset = 0;
      for (const Table& chunk : *chunks) {
        const std::string difference = RowsDiffer(*whole, offset, chunk);
        EXPECT_EQ(difference, "") << stream_label;
        if (!difference.empty()) break;
        offset += chunk.num_rows();
      }
      EXPECT_EQ(offset, whole->num_rows()) << stream_label;
    }
  }
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  std::string reference_dump;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const std::string table_label =
        label + " ReadTable threads=" + std::to_string(threads);
    obs::ResetAll();
    CsvChunkReader::Options options;
    options.chunk_rows = 3;  // many chunks, so four threads get a pool
    const Result<Table> table =
        CsvChunkReader::ReadTable(path, options, threads);
    const std::string dump = obs::ExportJson();
    if (threads == 1) reference_dump = dump;
    EXPECT_EQ(dump, reference_dump) << table_label;
    if (!whole.ok()) {
      EXPECT_EQ(table.status().ToString(), whole.status().ToString())
          << table_label;
      continue;
    }
    if (!table.ok()) {
      ADD_FAILURE() << table_label << ": " << table.status().ToString();
      continue;
    }
    EXPECT_EQ(RowsDiffer(*whole, 0, *table), "") << table_label;
    EXPECT_EQ(obs::GetCounter("csv.chunks_reparsed")->Value() > 0,
              wrong_guess)
        << table_label;
  }
  obs::SetEnabled(was_enabled);
  std::remove(path.c_str());
  return whole;
}

TEST(CsvGuessTest, IntColumnThatTurnsDoubleInItsLastChunk) {
  const size_t rows = 200;
  const std::string text = PaddedCsv("x,y", rows, [&](size_t r) {
    return (r + 1 == rows ? std::string("2.5") : std::to_string(r)) + "," +
           std::to_string(3 * r);
  });
  const Table table =
      ExpectEveryReadAgrees(text, true, "late double").ValueOrDie();
  EXPECT_EQ(table.schema().field(0).type, DataType::kDouble);
  EXPECT_EQ(table.schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(table.column(0).GetDouble(rows - 1).ValueOrDie(), 2.5);
}

TEST(CsvGuessTest, NegativeZeroInIntRowsThenALateDouble) {
  // `-0` is 0 as an int64 but -0.0 as a double: the guessed int64 values
  // must not be converted, but parsed again as doubles.
  const std::string text = PaddedCsv("x", 200, [](size_t r) {
    if (r == 180) return std::string("1.5");
    return r % 3 == 0 ? std::string("-0") : std::to_string(r);
  });
  const Table table =
      ExpectEveryReadAgrees(text, true, "negative zero").ValueOrDie();
  ASSERT_EQ(table.schema().field(0).type, DataType::kDouble);
  const double zero = table.column(0).GetDouble(0).ValueOrDie();
  EXPECT_EQ(zero, 0.0);
  EXPECT_TRUE(std::signbit(zero));
}

TEST(CsvGuessTest, ColumnNullPastTheGuessBlockThenInts) {
  const std::string text = PaddedCsv("x,y", 200, [](size_t r) {
    const std::string y = r < 150 ? (r % 2 == 0 ? "" : "NA")
                                  : std::to_string(r);
    return std::to_string(r) + "," + y;
  });
  const Table table =
      ExpectEveryReadAgrees(text, true, "late ints").ValueOrDie();
  EXPECT_EQ(table.schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(table.column(1).null_count(), 150u);
}

TEST(CsvGuessTest, TrueFalseAndZeroOneColumns) {
  // a: 0/1 in the guess block (int64), true/false later (bool).
  // b: true/false in the guess block, 0/1 later: bool all along.
  // c: 0/1 throughout: int64.
  const std::string text = PaddedCsv("a,b,c", 200, [](size_t r) {
    const bool late = r >= 150;
    const std::string a = late ? (r % 2 ? "true" : "false")
                               : (r % 2 ? "1" : "0");
    const std::string b = late ? (r % 2 ? "1" : "0")
                               : (r % 2 ? "TRUE" : "false");
    return a + "," + b + "," + (r % 3 ? "1" : "0");
  });
  const Table table =
      ExpectEveryReadAgrees(text, true, "bool columns").ValueOrDie();
  EXPECT_EQ(table.schema().field(0).type, DataType::kBool);
  EXPECT_EQ(table.schema().field(1).type, DataType::kBool);
  EXPECT_EQ(table.schema().field(2).type, DataType::kInt64);
  // Without column a the guess holds.
  const std::string held = PaddedCsv("b,c", 200, [](size_t r) {
    return std::string(r >= 150 ? (r % 2 ? "1" : "0")
                                : (r % 2 ? "true" : "false")) +
           "," + (r % 3 ? "1" : "0");
  });
  EXPECT_TRUE(ExpectEveryReadAgrees(held, false, "guess held").ok());
}

TEST(CsvGuessTest, RaggedRowAfterAMisguessedChunk) {
  // Row 150 turns x double; file row 171 (data row 170) lacks its pad.
  const std::string pad(600, 'p');
  std::string text = "x,y,pad\n";
  for (size_t r = 0; r < 200; ++r) {
    text += r == 150 ? std::string("0.5") : std::to_string(r);
    text += "," + std::to_string(r);
    if (r != 170) text += "," + pad;
    text += "\n";
  }
  const Result<Table> whole = ExpectEveryReadAgrees(text, true, "ragged");
  EXPECT_EQ(whole.status().ToString(),
            "invalid argument: CSV: row 171 has 2 fields, expected 3");
}

TEST(CsvGuessTest, DuplicateHeaderAndALaterRaggedRow) {
  // A repeated name leaves no guess: the flags pass runs first, so the
  // ragged row still wins over the duplicate name, as it always has.
  const std::string pad(600, 'p');
  std::string text = "x,x,pad\n";
  for (size_t r = 0; r < 200; ++r) {
    text += std::to_string(r) + "," + std::to_string(r);
    if (r != 170) text += "," + pad;
    text += "\n";
  }
  EXPECT_EQ(ExpectEveryReadAgrees(text, false, "duplicate ragged")
                .status()
                .ToString(),
            "invalid argument: CSV: row 171 has 2 fields, expected 3");
  const std::string no_ragged = PaddedCsv("x,x", 200, [](size_t r) {
    return std::to_string(r) + "," + std::to_string(r);
  });
  EXPECT_EQ(ExpectEveryReadAgrees(no_ragged, false, "duplicate")
                .status()
                .ToString(),
            "invalid argument: Schema: duplicate field name 'x'");
}

TEST(CsvGuessDeathTest, ConfirmGuessNeedsEveryChunkRead) {
  // A chunk never read (or whose range could not be opened) has no flags
  // to fold: ConfirmGuess stops rather than read past them.
  const std::string path =
      WriteTempCsv("fairlaw_csv_confirm.csv", "x,y\n1,2\n3,4\n5,6\n");
  CsvChunkReader::Options options;
  options.chunk_rows = 1;
  CsvChunkReader reader = CsvChunkReader::Scan(path, options).ValueOrDie();
  ASSERT_EQ(reader.num_chunks(), 3u);
  ASSERT_TRUE(reader.ReadGuessedChunk(0).ok());
  EXPECT_DEATH(static_cast<void>(reader.ConfirmGuess()),
               "ConfirmGuess needs every chunk read by ReadGuessedChunk");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fairlaw::data
