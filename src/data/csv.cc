#include "data/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "base/string_util.h"
#include "obs/obs.h"

namespace fairlaw::data {
namespace {

/// Incremental CSV row scanner over a stream. Each row comes back as
/// views into the scanner's one buffer, valid until the next call. The
/// buffer holds the current row plus one 64 KiB read block: a row that
/// runs past the bytes read so far moves to the front and the next block
/// is read behind it, so the buffer only grows for a row longer than a
/// block. Runs between special bytes (delimiter, quote, CR, LF) are
/// scanned in bulk; an unquoted field is viewed where it lies, and a
/// field with quotes is unescaped in place over the bytes it was read
/// from. Honors "" escapes, CR/LF/CRLF newlines and blank-line skipping.
/// This is the single tokenizer behind both passes of TwoPassReader.
class RowScanner {
 public:
  RowScanner(std::istream* input, char delimiter)
      : input_(input), delimiter_(delimiter) {
    for (char c : {delimiter, '"', '\r', '\n'}) {
      special_[static_cast<unsigned char>(c)] = true;
    }
  }

  /// Scans the next row into *row (cleared first). Returns true when a
  /// row was produced, false at clean end of input; Invalid on an
  /// unterminated quote, IOError on a read failure.
  FAIRLAW_NODISCARD Result<bool> NextRow(std::vector<std::string_view>* row) {
    row->clear();
    spans_.clear();
    row_start_ = pos_;
    // Offsets from row_start_, which a refill moves: the current field's
    // first byte, and once the field has met a quote, where its next
    // unescaped byte goes (kInPlace until then).
    size_t begin = 0;
    size_t out = kInPlace;
    bool in_quotes = false;
    for (;;) {
      if (pos_ == len_ && !Refill()) {
        if (input_->bad()) return Status::IOError("error reading CSV stream");
        if (in_quotes) return Status::Invalid("CSV: unterminated quoted field");
        if (pos_ == row_start_) return false;
        EndRow(begin, out == kInPlace ? pos_ - row_start_ : out, row);
        return true;
      }
      char* const data = buffer_.data();
      if (in_quotes) {
        const void* quote = std::memchr(data + pos_, '"', len_ - pos_);
        const size_t stop =
            quote == nullptr ? len_ : static_cast<const char*>(quote) - data;
        MoveRun(stop, &out);
        if (stop == len_) continue;
        ++pos_;  // the quote: "" is an escaped quote, else it closes
        if (pos_ == len_ && !Refill()) {
          in_quotes = false;
          continue;
        }
        if (buffer_[pos_] == '"') {
          buffer_[row_start_ + out++] = '"';
          ++pos_;
        } else {
          in_quotes = false;
        }
        continue;
      }
      size_t stop = pos_;
      while (stop < len_ && !special_[static_cast<unsigned char>(data[stop])]) {
        ++stop;
      }
      if (out == kInPlace) {
        pos_ = stop;
      } else {
        MoveRun(stop, &out);
      }
      if (stop == len_) continue;
      const char c = data[stop];
      const size_t at = stop - row_start_;
      ++pos_;
      if (c == '"') {
        if (out == kInPlace) out = at;
        in_quotes = true;
        continue;
      }
      if (c == delimiter_) {
        spans_.push_back({begin, out == kInPlace ? at : out});
        begin = at + 1;
        out = kInPlace;
        continue;
      }
      // CR or LF ends the row. The LF of a CRLF then starts a blank line,
      // which is skipped like any other.
      if (at == 0) {  // blank line: keep scanning
        row_start_ = pos_;
        continue;
      }
      EndRow(begin, out == kInPlace ? at : out, row);
      return true;
    }
  }

  /// Bytes read from the stream so far.
  size_t bytes_read() const { return bytes_read_; }

 private:
  static constexpr size_t kBlockSize = size_t{1} << 16;
  static constexpr size_t kInPlace = ~size_t{0};

  /// Unescaped field bytes [pos_, stop) go to row offset *out; pos_
  /// moves to stop.
  void MoveRun(size_t stop, size_t* out) {
    const size_t n = stop - pos_;
    char* const to = buffer_.data() + row_start_ + *out;
    if (to != buffer_.data() + pos_) std::memmove(to, buffer_.data() + pos_, n);
    *out += n;
    pos_ = stop;
  }

  /// Closes the last field at row offset `end` and emits the row's views.
  void EndRow(size_t begin, size_t end, std::vector<std::string_view>* row) {
    spans_.push_back({begin, end});
    const char* const base = buffer_.data() + row_start_;
    for (const auto& [first, last] : spans_) {
      row->emplace_back(base + first, last - first);
    }
  }

  /// Moves the current row to the front of the buffer and reads the next
  /// block behind it. False at end of input.
  bool Refill() {
    if (at_end_) return false;
    const size_t keep = len_ - row_start_;
    if (row_start_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + row_start_, keep);
      pos_ -= row_start_;
      row_start_ = 0;
      len_ = keep;
    }
    if (buffer_.size() < keep + kBlockSize) {
      buffer_.resize(std::max(2 * buffer_.size(), keep + kBlockSize));
    }
    input_->read(buffer_.data() + len_,
                 static_cast<std::streamsize>(kBlockSize));
    const size_t got = static_cast<size_t>(input_->gcount());
    if (got == 0) {
      at_end_ = true;
      return false;
    }
    len_ += got;
    bytes_read_ += got;
    return true;
  }

  std::istream* input_;
  char delimiter_;
  bool special_[256] = {};
  std::vector<char> buffer_ = std::vector<char>(2 * kBlockSize);
  std::vector<std::pair<size_t, size_t>> spans_;  // row offsets per field
  size_t row_start_ = 0;  // first byte of the row being scanned
  size_t pos_ = 0;        // next byte to scan
  size_t len_ = 0;        // bytes of buffer_ holding input
  size_t bytes_read_ = 0;
  bool at_end_ = false;
};

/// The CsvOptions null tokens, matched against whitespace-stripped cell
/// text without allocating: a length no token has is rejected by one bit
/// test before any compare.
class NullTokens {
 public:
  NullTokens() = default;
  explicit NullTokens(const std::vector<std::string>& tokens)
      : tokens_(tokens) {
    for (const std::string& token : tokens_) lengths_ |= LengthBit(token);
  }

  bool Contains(std::string_view stripped) const {
    if ((lengths_ & LengthBit(stripped)) == 0) return false;
    for (const std::string& token : tokens_) {
      if (stripped == token) return true;
    }
    return false;
  }

 private:
  static uint64_t LengthBit(std::string_view text) {
    return uint64_t{1} << std::min<size_t>(text.size(), 63);
  }

  std::vector<std::string> tokens_;
  uint64_t lengths_ = 0;
};

/// O(1)-memory column type tracker: the inference pass keeps one of these
/// per column instead of a token matrix. Priority: int64 > double > bool >
/// string; a column with no non-null values is string.
struct ColumnTypeFlags {
  bool all_int = true;
  bool all_double = true;
  bool all_bool = true;
  bool any_value = false;

  /// Narrows the candidates by one stripped non-null value. A check that
  /// already failed is never run again, and an int64 value skips the
  /// double check: every int64 token also parses as a double.
  void Observe(std::string_view text) {
    any_value = true;
    if (all_bool && !ParseBool(text).ok()) all_bool = false;
    if (all_int) {
      if (ParseInt64(text).ok()) return;
      all_int = false;
    }
    if (all_double && !ParseDouble(text).ok()) all_double = false;
  }

  DataType Resolve() const {
    if (!any_value) return DataType::kString;
    if (all_int) return DataType::kInt64;
    if (all_double) return DataType::kDouble;
    if (all_bool) return DataType::kBool;
    return DataType::kString;
  }
};

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
/// CsvChunkReader. Pass 1 sweeps the stream holding one row of field
/// views plus O(columns) type flags: it infers the schema, counts the
/// rows, and reports the first defect in file order (ragged row,
/// unterminated quote) or, once the sweep is clean, an empty input or a
/// duplicate header. Pass 2 rewinds the stream and parses rows on demand
/// straight into typed columns reserved to the chunk's row count, so a
/// caller holds as many parsed rows as it asks for and never the text.
class TwoPassReader {
 public:
  /// Runs pass 1 over `input`, then rewinds it and skips the header so
  /// ReadRows() starts at the first data row.
  FAIRLAW_NODISCARD Status Open(std::unique_ptr<std::istream> input,
                                const CsvOptions& options) {
    has_header_ = options.has_header;
    null_tokens_ = NullTokens(options.null_tokens);
    input_ = std::move(input);
    RowScanner scanner(input_.get(), options.delimiter);
    std::vector<std::string_view> row;
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
      FAIRLAW_RETURN_NOT_OK(CheckWidth(row.size(), row_index, num_columns));
      if (!(options.has_header && row_index == 0)) {
        ++num_rows_;
        for (size_t c = 0; c < num_columns; ++c) {
          const std::string_view text = StripWhitespace(row[c]);
          if (!null_tokens_.Contains(text)) flags[c].Observe(text);
        }
      }
      ++row_index;
    }
    if (row_index == 0) return Status::Invalid("CSV: input has no rows");
    obs::GetCounter("csv.bytes_read")->Increment(scanner.bytes_read());

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
      FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner_->NextRow(&row_));
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
    const size_t rows = std::min(max_rows, num_rows_ - rows_read_);
    const size_t num_columns = schema_.num_fields();
    std::vector<Column> columns;
    columns.reserve(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      columns.emplace_back(schema_.field(c).type);
      columns.back().Reserve(rows);
    }
    for (size_t r = 0; r < rows; ++r) {
      FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner_->NextRow(&row_));
      if (!has_row) return Shrank();
      FAIRLAW_RETURN_NOT_OK(CheckWidth(
          row_.size(), rows_read_ + (has_header_ ? 1 : 0), num_columns));
      for (size_t c = 0; c < num_columns; ++c) {
        FAIRLAW_RETURN_NOT_OK(AppendField(row_[c], &columns[c]));
      }
      ++rows_read_;
    }
    obs::GetCounter("csv.rows_loaded")->Increment(rows);
    return Table::Make(schema_, std::move(columns));
  }

 private:
  /// Appends one field to its typed column: null when its stripped text
  /// is a null token, else its parsed value.
  Status AppendField(std::string_view raw, Column* column) const {
    if (null_tokens_.Contains(StripWhitespace(raw))) {
      column->AppendNull();
      return Status::OK();
    }
    switch (column->type()) {
      case DataType::kDouble: {
        FAIRLAW_ASSIGN_OR_RETURN(double value, ParseDouble(raw));
        column->AppendDouble(value);
        return Status::OK();
      }
      case DataType::kInt64: {
        FAIRLAW_ASSIGN_OR_RETURN(int64_t value, ParseInt64(raw));
        column->AppendInt64(value);
        return Status::OK();
      }
      case DataType::kBool: {
        FAIRLAW_ASSIGN_OR_RETURN(bool value, ParseBool(raw));
        column->AppendBool(value);
        return Status::OK();
      }
      case DataType::kString:
        column->AppendString(raw);
        return Status::OK();
    }
    return Status::Internal("CSV: unknown column type");
  }

  static Status CheckWidth(size_t width, size_t row_index,
                           size_t num_columns) {
    if (width == num_columns) return Status::OK();
    return Status::Invalid("CSV: row " + std::to_string(row_index) + " has " +
                           std::to_string(width) + " fields, expected " +
                           std::to_string(num_columns));
  }

  static Status Shrank() {
    return Status::IOError("CSV: file shrank between inference and read "
                           "passes");
  }

  bool has_header_ = true;
  NullTokens null_tokens_;
  std::unique_ptr<std::istream> input_;
  std::optional<RowScanner> scanner_;  // pass 2, reading from input_
  std::vector<std::string_view> row_;  // pass 2's row, views into scanner_
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
size_t CsvChunkReader::num_chunks() const {
  return (num_rows() + impl_->chunk_rows - 1) / impl_->chunk_rows;
}

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
