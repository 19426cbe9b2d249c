#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "obs/obs.h"

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
  EXPECT_EQ(CsvChunkReader::Make(path).status().ToString(), expected);
  std::remove(path.c_str());
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

}  // namespace
}  // namespace fairlaw::data
