#include "data/csv.h"

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "base/string_util.h"
#include "obs/obs.h"

namespace fairlaw::data {
namespace {

/// Incremental CSV row scanner over a stream: pulls one row per call with
/// a fixed-size read buffer, honoring quoting ("" escapes), CR/LF/CRLF
/// newlines, and blank-line skipping. This is the single tokenizer behind
/// both passes of TwoPassReader.
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

  /// Bytes consumed from the stream so far.
  size_t bytes_consumed() const { return bytes_consumed_; }

 private:
  static constexpr size_t kBufferSize = size_t{1} << 16;

  int TakeByte() {
    if (pos_ >= len_ && !Fill()) return -1;
    ++bytes_consumed_;
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
  size_t bytes_consumed_ = 0;
  bool at_end_ = false;
};

bool IsNullToken(const std::string& raw, const CsvOptions& options) {
  std::string stripped(StripWhitespace(raw));
  for (const std::string& token : options.null_tokens) {
    if (stripped == token) return true;
  }
  return false;
}

/// O(1)-memory column type tracker: the inference pass keeps one of these
/// per column instead of a token matrix. Priority: int64 > double > bool >
/// string; a column with no non-null values is string.
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

std::string EscapeField(const std::string& value, char delimiter) {
  bool needs_quotes = value.find(delimiter) != std::string::npos ||
                      value.find('"') != std::string::npos ||
                      value.find('\n') != std::string::npos ||
                      value.find('\r') != std::string::npos;
  if (!needs_quotes) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// The one CSV reader behind ReadCsvString, ReadCsvFile and
/// CsvChunkReader. Pass 1 sweeps the stream holding one row of tokens
/// plus O(columns) type flags: it infers the schema, counts the rows, and
/// reports the first defect in file order (ragged row, unterminated
/// quote) or, once the sweep is clean, an empty input or a duplicate
/// header. Pass 2 rewinds the stream and parses rows on demand, so a
/// caller holds as many parsed rows as it asks for and never the text.
class TwoPassReader {
 public:
  /// Runs pass 1 over `input`, then rewinds it and skips the header so
  /// ReadRows() starts at the first data row.
  FAIRLAW_NODISCARD Status Open(std::unique_ptr<std::istream> input,
                                const CsvOptions& options) {
    options_ = options;
    input_ = std::move(input);
    RowScanner scanner(input_.get(), options.delimiter);
    std::vector<std::string> row;
    std::vector<std::string> names;
    std::vector<ColumnTypeFlags> flags;
    size_t num_columns = 0;
    size_t row_index = 0;
    for (;;) {
      FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner.NextRow(&row));
      if (!has_row) break;
      if (row_index == 0) {
        num_columns = row.size();
        flags.assign(num_columns, ColumnTypeFlags{});
        names.resize(num_columns);
        for (size_t c = 0; c < num_columns; ++c) {
          names[c] = options.has_header
                         ? std::string(StripWhitespace(row[c]))
                         : std::string("c").append(std::to_string(c));
        }
      }
      FAIRLAW_RETURN_NOT_OK(CheckWidth(row, row_index, num_columns));
      if (!(options.has_header && row_index == 0)) {
        ++num_rows_;
        for (size_t c = 0; c < num_columns; ++c) {
          if (IsNullToken(row[c], options)) continue;
          flags[c].Observe(row[c]);
        }
      }
      ++row_index;
    }
    if (row_index == 0) return Status::Invalid("CSV: input has no rows");
    obs::GetCounter("csv.bytes_read")->Increment(scanner.bytes_consumed());

    std::vector<Field> fields(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      fields[c] = Field{names[c], flags[c].Resolve()};
    }
    FAIRLAW_ASSIGN_OR_RETURN(schema_, Schema::Make(std::move(fields)));

    input_->clear();
    if (!input_->seekg(0)) {
      return Status::IOError("CSV: cannot rewind the input for the read "
                             "pass");
    }
    scanner_.emplace(input_.get(), options.delimiter);
    if (options.has_header) {
      FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner_->NextRow(&row));
      if (!has_row) return Shrank();
    }
    return Status::OK();
  }

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t rows_read() const { return rows_read_; }

  /// Pass 2: parses the next min(max_rows, rows left) rows into a table
  /// (zero rows once the input is exhausted).
  FAIRLAW_NODISCARD Result<Table> ReadRows(size_t max_rows) {
    TableBuilder builder(schema_);
    std::vector<std::string> row;
    std::vector<std::optional<Cell>> cells(schema_.num_fields());
    const size_t header_offset = options_.has_header ? 1 : 0;
    size_t parsed = 0;
    while (parsed < max_rows && rows_read_ < num_rows_) {
      FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner_->NextRow(&row));
      if (!has_row) return Shrank();
      FAIRLAW_RETURN_NOT_OK(CheckWidth(row, rows_read_ + header_offset,
                                       schema_.num_fields()));
      for (size_t c = 0; c < row.size(); ++c) {
        FAIRLAW_ASSIGN_OR_RETURN(
            cells[c], ParseCell(row[c], schema_.field(c).type, options_));
      }
      FAIRLAW_RETURN_NOT_OK(builder.AppendRowWithNulls(cells));
      ++parsed;
      ++rows_read_;
    }
    obs::GetCounter("csv.rows_loaded")->Increment(parsed);
    return builder.Finish();
  }

 private:
  static Status CheckWidth(const std::vector<std::string>& row,
                           size_t row_index, size_t num_columns) {
    if (row.size() == num_columns) return Status::OK();
    return Status::Invalid("CSV: row " + std::to_string(row_index) + " has " +
                           std::to_string(row.size()) + " fields, expected " +
                           std::to_string(num_columns));
  }

  static Status Shrank() {
    return Status::IOError("CSV: file shrank between inference and read "
                           "passes");
  }

  CsvOptions options_;
  std::unique_ptr<std::istream> input_;
  std::optional<RowScanner> scanner_;  // pass 2, reading from input_
  Schema schema_;
  size_t num_rows_ = 0;   // data rows in the input
  size_t rows_read_ = 0;  // data rows parsed by ReadRows so far
};

/// Drains a two-pass read of `input` into one table.
Result<Table> ReadAll(std::unique_ptr<std::istream> input,
                      const CsvOptions& options) {
  obs::TraceSpan span("read_csv");
  TwoPassReader reader;
  FAIRLAW_RETURN_NOT_OK(reader.Open(std::move(input), options));
  return reader.ReadRows(reader.num_rows());
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  return ReadAll(std::make_unique<std::istringstream>(text), options);
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  auto input = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*input) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadAll(std::move(input), options);
}

Result<std::string> WriteCsvString(const Table& table,
                                   const CsvOptions& options) {
  std::string out;
  const std::string delimiter(1, options.delimiter);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += delimiter;
    out += EscapeField(table.schema().field(c).name, options.delimiter);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delimiter;
      const Column& column = table.column(c);
      if (!column.IsValid(r)) continue;  // null renders as empty field
      FAIRLAW_ASSIGN_OR_RETURN(Cell cell, column.GetCell(r));
      out += EscapeField(CellToString(cell), options.delimiter);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  FAIRLAW_ASSIGN_OR_RETURN(std::string text, WriteCsvString(table, options));
  std::ofstream output(path, std::ios::binary);
  if (!output) return Status::IOError("cannot open '" + path +
                                      "' for writing");
  output << text;
  if (!output) return Status::IOError("error writing '" + path + "'");
  return Status::OK();
}

struct CsvChunkReader::Impl {
  TwoPassReader reader;
  size_t chunk_rows = kDefaultChunkRows;
};

CsvChunkReader::CsvChunkReader() : impl_(std::make_unique<Impl>()) {}
CsvChunkReader::CsvChunkReader(CsvChunkReader&&) noexcept = default;
CsvChunkReader& CsvChunkReader::operator=(CsvChunkReader&&) noexcept =
    default;
CsvChunkReader::~CsvChunkReader() = default;

const Schema& CsvChunkReader::schema() const { return impl_->reader.schema(); }
size_t CsvChunkReader::num_rows() const { return impl_->reader.num_rows(); }
size_t CsvChunkReader::rows_read() const { return impl_->reader.rows_read(); }

Result<CsvChunkReader> CsvChunkReader::Make(const std::string& path) {
  return Make(path, Options{});
}

Result<CsvChunkReader> CsvChunkReader::Make(const std::string& path,
                                            const Options& options) {
  obs::TraceSpan span("csv_open_stream");
  auto input = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*input) return Status::IOError("cannot open '" + path + "' for reading");
  CsvChunkReader reader;
  reader.impl_->chunk_rows =
      options.chunk_rows == 0 ? kDefaultChunkRows : options.chunk_rows;
  FAIRLAW_RETURN_NOT_OK(reader.impl_->reader.Open(std::move(input),
                                                  options.csv));
  return reader;
}

Result<std::optional<Table>> CsvChunkReader::Next() {
  TwoPassReader& reader = impl_->reader;
  if (reader.rows_read() >= reader.num_rows()) return std::optional<Table>();
  obs::TraceSpan span("csv_chunk");
  FAIRLAW_ASSIGN_OR_RETURN(Table chunk, reader.ReadRows(impl_->chunk_rows));
  obs::GetCounter("csv.chunks_streamed")->Increment();
  return std::optional<Table>(std::move(chunk));
}

}  // namespace fairlaw::data
