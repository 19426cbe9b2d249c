#include "support/csv_oracle.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <optional>
#include <sstream>
#include <vector>

#include "base/string_util.h"

namespace fairlaw::data {
namespace {

/// Incremental CSV row scanner over a stream: pulls one row per call with
/// a fixed-size read buffer, one byte at a time, honoring quoting (""
/// escapes), CR/LF/CRLF newlines, and blank-line skipping.
class RowScanner {
 public:
  RowScanner(std::istream* input, char delimiter)
      : input_(input), delimiter_(delimiter) {}

  /// Scans the next row into *row (cleared first). Returns true when a
  /// row was produced, false at clean end of input; Invalid on an
  /// unterminated quote, IOError on a read failure.
  FAIRLAW_NODISCARD Result<bool> NextRow(std::vector<std::string>* row) {
    row->clear();
    std::string field;
    bool in_quotes = false;
    bool row_has_content = false;
    for (;;) {
      const int ci = TakeByte();
      if (ci < 0) {
        if (input_->bad()) return Status::IOError("error reading CSV stream");
        if (in_quotes) return Status::Invalid("CSV: unterminated quoted field");
        if (row_has_content || !field.empty()) {
          row->push_back(std::move(field));
          return true;
        }
        return false;
      }
      const char c = static_cast<char>(ci);
      if (in_quotes) {
        if (c == '"') {
          if (PeekByte() == '"') {
            field += '"';
            (void)TakeByte();
            continue;
          }
          in_quotes = false;
          continue;
        }
        field += c;
        continue;
      }
      if (c == '"') {
        in_quotes = true;
        row_has_content = true;
        continue;
      }
      if (c == delimiter_) {
        row->push_back(std::move(field));
        field.clear();
        row_has_content = true;
        continue;
      }
      if (c == '\n' || c == '\r') {
        if (c == '\r' && PeekByte() == '\n') (void)TakeByte();
        if (row_has_content || !field.empty()) {
          row->push_back(std::move(field));
          return true;
        }
        continue;  // blank line: keep scanning
      }
      field += c;
      row_has_content = true;
    }
  }

 private:
  static constexpr size_t kBufferSize = size_t{1} << 16;

  int TakeByte() {
    if (pos_ >= len_ && !Fill()) return -1;
    return static_cast<unsigned char>(buffer_[pos_++]);
  }

  int PeekByte() {
    if (pos_ >= len_ && !Fill()) return -1;
    return static_cast<unsigned char>(buffer_[pos_]);
  }

  bool Fill() {
    if (at_end_) return false;
    input_->read(buffer_.data(), static_cast<std::streamsize>(kBufferSize));
    len_ = static_cast<size_t>(input_->gcount());
    pos_ = 0;
    if (len_ == 0) {
      at_end_ = true;
      return false;
    }
    return true;
  }

  std::istream* input_;
  char delimiter_;
  std::vector<char> buffer_ = std::vector<char>(kBufferSize);
  size_t pos_ = 0;
  size_t len_ = 0;
  bool at_end_ = false;
};

bool IsNullToken(const std::string& raw, const CsvOptions& options) {
  std::string stripped(StripWhitespace(raw));
  for (const std::string& token : options.null_tokens) {
    if (stripped == token) return true;
  }
  return false;
}

/// Priority: int64 > double > bool > string; a column with no non-null
/// values is string. Every non-null cell runs all three parsers.
struct ColumnTypeFlags {
  bool all_int = true;
  bool all_double = true;
  bool all_bool = true;
  bool any_value = false;

  void Observe(const std::string& raw) {
    any_value = true;
    if (all_int && !ParseInt64(raw).ok()) all_int = false;
    if (all_double && !ParseDouble(raw).ok()) all_double = false;
    if (all_bool && !ParseBool(raw).ok()) all_bool = false;
  }

  DataType Resolve() const {
    if (!any_value) return DataType::kString;
    if (all_int) return DataType::kInt64;
    if (all_double) return DataType::kDouble;
    if (all_bool) return DataType::kBool;
    return DataType::kString;
  }
};

Result<std::optional<Cell>> ParseCell(const std::string& raw, DataType type,
                                      const CsvOptions& options) {
  if (IsNullToken(raw, options)) return std::optional<Cell>();
  switch (type) {
    case DataType::kDouble: {
      FAIRLAW_ASSIGN_OR_RETURN(double v, ParseDouble(raw));
      return std::optional<Cell>(Cell(v));
    }
    case DataType::kInt64: {
      FAIRLAW_ASSIGN_OR_RETURN(int64_t v, ParseInt64(raw));
      return std::optional<Cell>(Cell(v));
    }
    case DataType::kBool: {
      FAIRLAW_ASSIGN_OR_RETURN(bool v, ParseBool(raw));
      return std::optional<Cell>(Cell(v));
    }
    case DataType::kString:
      return std::optional<Cell>(Cell(raw));
  }
  return Status::Internal("ParseCell: unknown type");
}

}  // namespace

Result<Table> ReadCsvOracle(const std::string& text,
                            const CsvOptions& options) {
  std::istringstream input(text);
  RowScanner scanner(&input, options.delimiter);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  for (;;) {
    FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner.NextRow(&row));
    if (!has_row) break;
    const size_t expected = rows.empty() ? row.size() : rows[0].size();
    if (row.size() != expected) {
      return Status::Invalid("CSV: row " + std::to_string(rows.size()) +
                             " has " + std::to_string(row.size()) +
                             " fields, expected " + std::to_string(expected));
    }
    rows.push_back(row);
  }
  if (rows.empty()) return Status::Invalid("CSV: input has no rows");

  const size_t num_columns = rows[0].size();
  const size_t first_data_row = options.has_header ? 1 : 0;
  std::vector<ColumnTypeFlags> flags(num_columns);
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      if (!IsNullToken(rows[r][c], options)) flags[c].Observe(rows[r][c]);
    }
  }
  std::vector<Field> fields(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    fields[c] = Field{options.has_header
                          ? std::string(StripWhitespace(rows[0][c]))
                          : "c" + std::to_string(c),
                      flags[c].Resolve()};
  }
  FAIRLAW_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));

  std::vector<Column> columns;
  for (size_t c = 0; c < num_columns; ++c) {
    columns.emplace_back(schema.field(c).type);
  }
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      FAIRLAW_ASSIGN_OR_RETURN(
          std::optional<Cell> cell,
          ParseCell(rows[r][c], schema.field(c).type, options));
      if (cell.has_value()) {
        FAIRLAW_RETURN_NOT_OK(columns[c].AppendCell(*cell));
      } else {
        columns[c].AppendNull();
      }
    }
  }
  return Table::Make(std::move(schema), std::move(columns));
}

namespace {

bool SameCell(const Column& want, size_t want_row, const Column& got,
              size_t got_row) {
  switch (got.type()) {
    case DataType::kDouble:
      return std::bit_cast<uint64_t>(want.GetDouble(want_row).ValueOrDie()) ==
             std::bit_cast<uint64_t>(got.GetDouble(got_row).ValueOrDie());
    case DataType::kInt64:
      return want.GetInt64(want_row).ValueOrDie() ==
             got.GetInt64(got_row).ValueOrDie();
    case DataType::kString:
      return want.GetString(want_row).ValueOrDie() ==
             got.GetString(got_row).ValueOrDie();
    case DataType::kBool:
      return want.GetBool(want_row).ValueOrDie() ==
             got.GetBool(got_row).ValueOrDie();
  }
  return false;
}

}  // namespace

std::string RowsDiffer(const Table& want, size_t offset, const Table& got) {
  if (!(want.schema() == got.schema())) {
    return "schema " + got.schema().ToString() + " vs the oracle's " +
           want.schema().ToString();
  }
  if (offset + got.num_rows() > want.num_rows()) {
    return "more rows than the oracle's " + std::to_string(want.num_rows());
  }
  for (size_t c = 0; c < got.num_columns(); ++c) {
    const Column& expected = want.column(c);
    const Column& actual = got.column(c);
    std::vector<std::string> first_seen;
    for (size_t r = 0; r < got.num_rows(); ++r) {
      const bool valid = expected.IsValid(offset + r);
      if (valid != actual.IsValid(r) ||
          (valid && !SameCell(expected, offset + r, actual, r))) {
        return "column " + std::to_string(c) + " row " +
               std::to_string(offset + r) + ": " + actual.ValueToString(r) +
               " vs the oracle's " + expected.ValueToString(offset + r);
      }
      if (valid && actual.type() == DataType::kString) {
        const std::string value = actual.GetString(r).ValueOrDie();
        if (std::find(first_seen.begin(), first_seen.end(), value) ==
            first_seen.end()) {
          first_seen.push_back(value);
        }
      }
    }
    if (actual.type() == DataType::kString &&
        actual.dictionary().keys() != first_seen) {
      return "column " + std::to_string(c) +
             ": the dictionary is not the rows' first-seen values";
    }
  }
  return "";
}

}  // namespace fairlaw::data
