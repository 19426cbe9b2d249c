#include "data/csv.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <variant>
#include <vector>

#include "base/check.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "obs/obs.h"
#include "stats/mergeable.h"

namespace fairlaw::data {
namespace {

/// Incremental CSV row scanner over a stream. Each row comes back as
/// views into the scanner's one buffer, valid until the next call. The
/// buffer holds the current row plus one read block: a row that
/// runs past the bytes read so far moves to the front and the next block
/// is read behind it, so the buffer only grows for a row longer than a
/// block. Runs between special bytes (delimiter, quote, CR, LF) are
/// scanned in bulk; an unquoted field is viewed where it lies, and a
/// field with quotes is unescaped in place over the bytes it was read
/// from. Honors "" escapes, CR/LF/CRLF newlines and blank-line skipping.
/// It reads at most `limit` bytes, so a chunk's scanner stops at the end
/// of the chunk's byte range. This is the single tokenizer behind every
/// read: the first row, type inference and parsing.
class RowScanner {
 public:
  /// The read block of a one-range read and of a streamed chunk.
  static constexpr size_t kBlockSize = size_t{1} << 16;
  /// The read block of a chunk of the pooled whole-table read, whose
  /// workers each hold a scanner while every column is allocated: with
  /// 64 KiB blocks a 4-thread read of a 100k-row table peaked 4.8% above
  /// the serial read's RSS, with these 1.2%. (A streamed chunk holds
  /// only its own rows, and there 16 KiB blocks cost ~4% throughput.)
  static constexpr size_t kTableBlockSize = size_t{1} << 14;

  RowScanner(std::istream* input, char delimiter,
             uint64_t limit = ~uint64_t{0}, size_t block_size = kBlockSize)
      : input_(input),
        delimiter_(delimiter),
        limit_(limit),
        block_size_(block_size),
        buffer_(2 * block_size) {
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
  uint64_t bytes_read() const { return bytes_read_; }

  /// Bytes of the stream the rows returned so far span, up to and
  /// including the last one's row end.
  uint64_t consumed() const { return bytes_read_ - (len_ - pos_); }

 private:
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
    if (buffer_.size() < keep + block_size_) {
      buffer_.resize(std::max(2 * buffer_.size(), keep + block_size_));
    }
    input_->read(buffer_.data() + len_,
                 static_cast<std::streamsize>(
                     std::min<uint64_t>(block_size_, limit_ - bytes_read_)));
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
  uint64_t limit_;
  size_t block_size_;
  bool special_[256] = {};
  std::vector<char> buffer_;
  std::vector<std::pair<size_t, size_t>> spans_;  // row offsets per field
  size_t row_start_ = 0;  // first byte of the row being scanned
  size_t pos_ = 0;        // next byte to scan
  size_t len_ = 0;        // bytes of buffer_ holding input
  uint64_t bytes_read_ = 0;
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

  /// Folds in another range's flags: a candidate type survives only if
  /// it held in both, which is what one pass over both would find.
  void Merge(const ColumnTypeFlags& other) {
    all_int = all_int && other.all_int;
    all_double = all_double && other.all_double;
    all_bool = all_bool && other.all_bool;
    any_value = any_value || other.any_value;
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

/// What every range of one input is read with: the options and the
/// column names, which come from the first row (the header, or c0, c1,
/// ... for its width when there is none).
struct Layout {
  char delimiter = ',';
  NullTokens null_tokens;
  std::vector<std::string> names;
  /// Where the data rows begin: after the header's row end, or 0.
  uint64_t data_start = 0;
  /// File row index of the first data row: 1 after a header, else 0.
  size_t first_row = 0;
};

/// Reads the first row of `input` for the layout. Fails on an input
/// with no rows or a defect in that row.
Result<Layout> ReadLayout(std::istream* input, const CsvOptions& options) {
  RowScanner scanner(input, options.delimiter);
  std::vector<std::string_view> row;
  FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner.NextRow(&row));
  if (!has_row) return Status::Invalid("CSV: input has no rows");
  Layout layout;
  layout.delimiter = options.delimiter;
  layout.null_tokens = NullTokens(options.null_tokens);
  layout.names.resize(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    layout.names[c] = options.has_header
                          ? std::string(StripWhitespace(row[c]))
                          : std::string("c").append(std::to_string(c));
  }
  layout.data_start = options.has_header ? scanner.consumed() : 0;
  layout.first_row = options.has_header ? 1 : 0;
  return layout;
}

Status CheckWidth(size_t width, size_t row_index, size_t num_columns) {
  if (width == num_columns) return Status::OK();
  return Status::Invalid("CSV: row " + std::to_string(row_index) + " has " +
                         std::to_string(width) + " fields, expected " +
                         std::to_string(num_columns));
}

Status Changed() {
  return Status::IOError("CSV: file changed between the scan and read "
                         "passes");
}

/// Positions `input` at byte `offset` for another pass.
Status Seek(std::istream* input, uint64_t offset) {
  input->clear();
  if (!input->seekg(static_cast<std::streamoff>(offset))) {
    return Status::IOError("CSV: cannot seek the input for the read pass");
  }
  return Status::OK();
}

/// The inference pass over one range: narrows `flags` (one per column)
/// by every row `scanner` yields and checks each row's width; the first
/// of those rows is file row `first_row`. Returns the rows read, or the
/// range's first defect.
Result<size_t> InferRows(RowScanner* scanner, size_t first_row,
                         const Layout& layout,
                         std::vector<ColumnTypeFlags>* flags) {
  const size_t num_columns = layout.names.size();
  flags->assign(num_columns, ColumnTypeFlags{});
  std::vector<std::string_view> row;
  size_t rows = 0;
  for (;;) {
    FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner->NextRow(&row));
    if (!has_row) return rows;
    FAIRLAW_RETURN_NOT_OK(CheckWidth(row.size(), first_row + rows,
                                     num_columns));
    for (size_t c = 0; c < num_columns; ++c) {
      const std::string_view text = StripWhitespace(row[c]);
      if (!layout.null_tokens.Contains(text)) (*flags)[c].Observe(text);
    }
    ++rows;
  }
}

Result<Schema> ResolveSchema(const Layout& layout,
                             const std::vector<ColumnTypeFlags>& flags) {
  std::vector<Field> fields(layout.names.size());
  for (size_t c = 0; c < fields.size(); ++c) {
    fields[c] = Field{layout.names[c], flags[c].Resolve()};
  }
  return Schema::Make(std::move(fields));
}

/// A string column's dictionary while a range is parsed.
using StringDictionary = stats::FirstSeenMap<std::monostate>;

/// Zeroed slot storage for `rows` rows of every column of `schema`.
std::vector<Column::Slots> SizeColumns(const Schema& schema, size_t rows) {
  std::vector<Column::Slots> columns;
  columns.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    columns.emplace_back(schema.field(c).type, rows);
  }
  return columns;
}

Result<Table> MakeTable(const Schema& schema,
                        std::vector<Column::Slots> slots) {
  std::vector<Column> columns;
  columns.reserve(slots.size());
  for (size_t c = 0; c < slots.size(); ++c) {
    columns.push_back(
        Column::FromSlots(schema.field(c).type, std::move(slots[c])));
  }
  return Table::Make(schema, std::move(columns));
}

/// Stores one field in slot `slot` of its zeroed column: a null when its
/// stripped text is a null token, else its parsed value. Strings intern
/// into `dictionary`.
Status StoreField(std::string_view raw, const NullTokens& null_tokens,
                  DataType type, size_t slot, Column::Slots* column,
                  StringDictionary* dictionary) {
  if (null_tokens.Contains(StripWhitespace(raw))) {
    if (type == DataType::kString) column->codes[slot] = Column::kNullCode;
    return Status::OK();
  }
  column->valid[slot] = 1;
  switch (type) {
    case DataType::kDouble: {
      FAIRLAW_ASSIGN_OR_RETURN(column->doubles[slot], ParseDouble(raw));
      return Status::OK();
    }
    case DataType::kInt64: {
      FAIRLAW_ASSIGN_OR_RETURN(column->int64s[slot], ParseInt64(raw));
      return Status::OK();
    }
    case DataType::kBool: {
      FAIRLAW_ASSIGN_OR_RETURN(const bool value, ParseBool(raw));
      column->bools[slot] = value ? 1 : 0;
      return Status::OK();
    }
    case DataType::kString: {
      const size_t code = dictionary->KeyIndex(raw);
      FAIRLAW_CHECK_MSG(code < Column::kNullCode,
                        "string dictionary would reach the null code");
      column->codes[slot] = static_cast<uint32_t>(code);
      return Status::OK();
    }
  }
  return Status::Internal("CSV: unknown column type");
}

/// The parse pass over one range: parses the `rows` rows `scanner`
/// yields, the first of them file row `first_row`, straight into slots
/// [first_slot, first_slot + rows) of `columns`, so a caller holds the
/// parsed rows and never the text. String cells intern into the range's
/// own `dictionaries` (one per column).
Status ParseRows(RowScanner* scanner, size_t rows, size_t first_row,
                 size_t first_slot, const Layout& layout,
                 const Schema& schema, std::vector<Column::Slots>* columns,
                 std::vector<StringDictionary>* dictionaries) {
  const size_t num_columns = schema.num_fields();
  std::vector<DataType> types(num_columns);
  for (size_t c = 0; c < num_columns; ++c) types[c] = schema.field(c).type;
  std::vector<std::string_view> row;
  for (size_t r = 0; r < rows; ++r) {
    FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner->NextRow(&row));
    if (!has_row) return Changed();
    FAIRLAW_RETURN_NOT_OK(CheckWidth(row.size(), first_row + r, num_columns));
    for (size_t c = 0; c < num_columns; ++c) {
      FAIRLAW_RETURN_NOT_OK(StoreField(row[c], layout.null_tokens, types[c],
                                       first_slot + r, &(*columns)[c],
                                       &(*dictionaries)[c]));
    }
  }
  obs::GetCounter("csv.rows_loaded")->Increment(rows);
  return Status::OK();
}

/// ParseRows into a table of the range's own.
Result<Table> ParseTable(RowScanner* scanner, size_t rows, size_t first_row,
                         const Layout& layout, const Schema& schema) {
  std::vector<Column::Slots> columns = SizeColumns(schema, rows);
  std::vector<StringDictionary> dictionaries(columns.size());
  FAIRLAW_RETURN_NOT_OK(ParseRows(scanner, rows, first_row, 0, layout,
                                  schema, &columns, &dictionaries));
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].dictionary = std::move(dictionaries[c]);
  }
  return MakeTable(schema, std::move(columns));
}

/// Reads all of `input` as one range: the first row, then the inference
/// and the parse pass over the data rows, with no boundary scan.
Result<Table> ReadAll(std::istream* input, const CsvOptions& options) {
  FAIRLAW_ASSIGN_OR_RETURN(Layout layout, ReadLayout(input, options));
  FAIRLAW_RETURN_NOT_OK(Seek(input, layout.data_start));
  std::vector<ColumnTypeFlags> flags;
  size_t rows = 0;
  {  // the inference scanner's buffer goes before the parse pass starts
    RowScanner inference(input, layout.delimiter);
    FAIRLAW_ASSIGN_OR_RETURN(
        rows, InferRows(&inference, layout.first_row, layout, &flags));
    obs::GetCounter("csv.bytes_read")
        ->Increment(layout.data_start + inference.bytes_read());
  }
  FAIRLAW_ASSIGN_OR_RETURN(Schema schema, ResolveSchema(layout, flags));
  FAIRLAW_RETURN_NOT_OK(Seek(input, layout.data_start));
  RowScanner parse(input, layout.delimiter);
  return ParseTable(&parse, rows, layout.first_row, layout, schema);
}

/// ReadAll over the file at `path`.
Result<Table> ReadFile(const std::string& path, const CsvOptions& options) {
  std::ifstream input(path, std::ios::binary);
  if (!input) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadAll(&input, options);
}

/// Where a streamed file's chunks begin, found by the boundary scan.
struct ChunkBounds {
  size_t num_rows = 0;           // data rows in the file
  std::vector<uint64_t> starts;  // byte offset of each chunk's range
  uint64_t end = 0;              // the file's size
};

/// The boundary scan over `input` from byte `start` to its end. It
/// follows RowScanner's row rules without splitting fields: outside
/// quotes a CR or LF ends a row unless the row is empty (a blank line),
/// every '"' toggles quoting, and a last row cut off by the end of the
/// input (no row end, or an unterminated quote) still counts. Each
/// chunk's range begins right after the row end of the previous chunk's
/// last row, so the LF of a CRLF there is a blank line the chunk skips.
/// It hops between stop bytes with memchr, so a block with no quote or
/// CR costs one memchr per row.
Result<ChunkBounds> ScanChunkBounds(std::istream* input, uint64_t start,
                                    size_t chunk_rows) {
  ChunkBounds bounds;
  bounds.starts.push_back(start);
  std::vector<char> block(size_t{1} << 16);
  uint64_t offset = start;               // file offset of block[0]
  uint64_t row_begin = start;            // where the current line begins
  size_t rows_to_boundary = chunk_rows;  // rows until the next chunk
  bool in_quotes = false;
  for (;;) {
    input->read(block.data(), static_cast<std::streamsize>(block.size()));
    const size_t got = static_cast<size_t>(input->gcount());
    if (got == 0) break;
    const char* const first = block.data();
    const char* const last = first + got;
    auto find = [last](const char* from, char c) {
      const void* hit = std::memchr(from, c, static_cast<size_t>(last - from));
      return hit == nullptr ? last : static_cast<const char*>(hit);
    };
    // The next '"' at or after p, and the next CR and LF, each searched
    // for again only once p has passed it (`last` when there is none).
    const char* p = first;
    const char* quote = find(p, '"');
    const char* cr = find(p, '\r');
    const char* lf = find(p, '\n');
    for (;;) {
      if (in_quotes) {
        if (quote == last) break;
        p = quote + 1;
        quote = find(p, '"');
        in_quotes = false;
        continue;
      }
      if (cr < p) cr = find(p, '\r');
      if (lf < p) lf = find(p, '\n');
      const char* const stop = std::min({quote, cr, lf});
      if (stop == last) break;
      p = stop + 1;
      if (stop == quote) {
        quote = find(p, '"');
        in_quotes = true;
        continue;
      }
      const uint64_t at = offset + static_cast<uint64_t>(stop - first);
      if (at != row_begin) {
        ++bounds.num_rows;
        if (--rows_to_boundary == 0) {
          bounds.starts.push_back(at + 1);
          rows_to_boundary = chunk_rows;
        }
      }
      row_begin = at + 1;
    }
    offset += got;
  }
  if (input->bad()) return Status::IOError("error reading CSV stream");
  if (offset != row_begin) ++bounds.num_rows;
  bounds.starts.resize((bounds.num_rows + chunk_rows - 1) / chunk_rows);
  bounds.end = offset;
  return bounds;
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  std::istringstream input(text);
  obs::TraceSpan span("read_csv");
  return ReadAll(&input, options);
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  obs::TraceSpan span("read_csv");
  return ReadFile(path, options);
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options,
                          size_t num_threads) {
  CsvChunkReader::Options reader_options;
  reader_options.csv = options;
  return CsvChunkReader::ReadTable(path, reader_options, num_threads);
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
  std::string path;
  size_t chunk_rows = kDefaultChunkRows;
  Layout layout;
  ChunkBounds bounds;
  Schema schema;
  bool inferred = false;
  std::string parent_path;  // where worker spans nest
  size_t next_chunk = 0;    // Next()'s cursor

  /// File row index of chunk `chunk`'s first row.
  size_t FirstRow(size_t chunk) const {
    return layout.first_row + chunk * chunk_rows;
  }
  size_t RowsIn(size_t chunk) const {
    return std::min(chunk_rows, bounds.num_rows - chunk * chunk_rows);
  }

  /// Opens chunk `chunk`'s byte range on a stream of its own and runs
  /// `read` over a scanner limited to that range, reading `block_size`
  /// bytes at a time.
  template <typename Read>
  auto WithRange(size_t chunk, size_t block_size, const Read& read) const
      -> decltype(read(std::declval<RowScanner*>())) {
    const uint64_t begin = bounds.starts[chunk];
    const uint64_t end =
        chunk + 1 < bounds.starts.size() ? bounds.starts[chunk + 1]
                                         : bounds.end;
    std::ifstream input(path, std::ios::binary);
    if (!input) {
      return Status::IOError("cannot open '" + path + "' for reading");
    }
    FAIRLAW_RETURN_NOT_OK(Seek(&input, begin));
    RowScanner scanner(&input, layout.delimiter, end - begin, block_size);
    return read(&scanner);
  }

  /// Scan() without its span and counter: the first row and the
  /// boundary scan.
  Status Open(const std::string& file, const Options& options) {
    std::ifstream input(file, std::ios::binary);
    if (!input) {
      return Status::IOError("cannot open '" + file + "' for reading");
    }
    path = file;
    chunk_rows =
        options.chunk_rows == 0 ? kDefaultChunkRows : options.chunk_rows;
    FAIRLAW_ASSIGN_OR_RETURN(layout, ReadLayout(&input, options.csv));
    FAIRLAW_RETURN_NOT_OK(Seek(&input, layout.data_start));
    FAIRLAW_ASSIGN_OR_RETURN(
        bounds, ScanChunkBounds(&input, layout.data_start, chunk_rows));
    return Status::OK();
  }

  /// InferSchema() without its span, reading `block_size` bytes at a
  /// time.
  Status Infer(ThreadPool* pool, size_t block_size) {
    struct Inferred {
      Status status;
      std::vector<ColumnTypeFlags> flags;
    };
    std::vector<Inferred> chunks(bounds.starts.size());
    auto infer = [this, &chunks, block_size](size_t i) {
      Result<size_t> rows = WithRange(i, block_size, [&](RowScanner* scanner) {
        return InferRows(scanner, FirstRow(i), layout, &chunks[i].flags);
      });
      if (!rows.ok()) {
        chunks[i].status = rows.status();
      } else if (*rows != RowsIn(i)) {
        chunks[i].status = Changed();
      }
    };
    if (pool == nullptr) {
      for (size_t i = 0; i < chunks.size(); ++i) infer(i);
    } else {
      pool->ParallelFor(chunks.size(), infer);
    }
    std::vector<ColumnTypeFlags> flags(layout.names.size());
    for (const Inferred& chunk : chunks) {
      FAIRLAW_RETURN_NOT_OK(chunk.status);
      for (size_t c = 0; c < flags.size(); ++c) flags[c].Merge(chunk.flags[c]);
    }
    FAIRLAW_ASSIGN_OR_RETURN(schema, ResolveSchema(layout, flags));
    inferred = true;
    return Status::OK();
  }

  /// Parses every chunk on `pool` into one table's columns, allocated
  /// here at num_rows: each chunk fills its own row range and string
  /// dictionaries, the dictionaries merge in chunk order, and the chunks
  /// whose codes that renumbers are remapped on the pool.
  Result<Table> ParseAll(ThreadPool* pool) const {
    const size_t num_chunks = bounds.starts.size();
    const size_t num_columns = schema.num_fields();
    std::vector<Column::Slots> columns = SizeColumns(schema, bounds.num_rows);
    struct Parsed {
      Status status;
      std::vector<StringDictionary> dictionaries;
      std::vector<std::vector<uint32_t>> remaps;  // empty: codes stay
    };
    std::vector<Parsed> chunks(num_chunks);
    pool->ParallelFor(num_chunks, [this, &columns, &chunks,
                                   num_columns](size_t i) {
      Parsed& chunk = chunks[i];
      chunk.dictionaries.resize(num_columns);
      chunk.status = WithRange(i, RowScanner::kTableBlockSize,
                               [&](RowScanner* scanner) {
        return ParseRows(scanner, RowsIn(i), FirstRow(i), i * chunk_rows,
                         layout, schema, &columns, &chunk.dictionaries);
      });
    });
    for (Parsed& chunk : chunks) {
      FAIRLAW_RETURN_NOT_OK(chunk.status);
      chunk.remaps.resize(num_columns);
    }
    // First-seen dictionaries merged in chunk order give the whole
    // file's first-seen order (DESIGN.md §14, fact 2).
    for (size_t c = 0; c < num_columns; ++c) {
      if (schema.field(c).type != DataType::kString) continue;
      StringDictionary& merged = columns[c].dictionary;
      for (Parsed& chunk : chunks) {
        const std::vector<std::string>& keys = chunk.dictionaries[c].keys();
        std::vector<uint32_t> remap(keys.size());
        bool renumbered = false;
        for (size_t k = 0; k < keys.size(); ++k) {
          const size_t code = merged.KeyIndex(keys[k]);
          FAIRLAW_CHECK_MSG(code < Column::kNullCode,
                            "string dictionary would reach the null code");
          remap[k] = static_cast<uint32_t>(code);
          renumbered = renumbered || code != k;
        }
        if (renumbered) chunk.remaps[c] = std::move(remap);
      }
    }
    pool->ParallelFor(num_chunks, [this, &columns, &chunks,
                                   num_columns](size_t i) {
      for (size_t c = 0; c < num_columns; ++c) {
        const std::vector<uint32_t>& remap = chunks[i].remaps[c];
        if (remap.empty()) continue;
        uint32_t* const codes = columns[c].codes.data() + i * chunk_rows;
        for (size_t r = 0; r < RowsIn(i); ++r) {
          if (codes[r] != Column::kNullCode) codes[r] = remap[codes[r]];
        }
      }
    });
    return MakeTable(schema, std::move(columns));
  }
};

CsvChunkReader::CsvChunkReader() : impl_(std::make_unique<Impl>()) {}
CsvChunkReader::CsvChunkReader(CsvChunkReader&&) noexcept = default;
CsvChunkReader& CsvChunkReader::operator=(CsvChunkReader&&) noexcept =
    default;
CsvChunkReader::~CsvChunkReader() = default;

const Schema& CsvChunkReader::schema() const { return impl_->schema; }
size_t CsvChunkReader::num_rows() const { return impl_->bounds.num_rows; }
size_t CsvChunkReader::num_chunks() const {
  return impl_->bounds.starts.size();
}

Result<CsvChunkReader> CsvChunkReader::Make(const std::string& path,
                                            const Options& options) {
  FAIRLAW_ASSIGN_OR_RETURN(CsvChunkReader reader, Scan(path, options));
  FAIRLAW_RETURN_NOT_OK(reader.InferSchema(nullptr));
  return reader;
}

Result<CsvChunkReader> CsvChunkReader::Scan(const std::string& path,
                                            const Options& options) {
  CsvChunkReader reader;
  Impl& impl = *reader.impl_;
  impl.parent_path = obs::CurrentPath();
  obs::TraceSpan span("csv_open_stream");
  FAIRLAW_RETURN_NOT_OK(impl.Open(path, options));
  obs::GetCounter("csv.bytes_read")->Increment(impl.bounds.end);
  return reader;
}

Status CsvChunkReader::InferSchema(ThreadPool* pool) {
  obs::TraceSpan span("csv_infer_schema");
  return impl_->Infer(pool, RowScanner::kBlockSize);
}

Result<Table> CsvChunkReader::ReadTable(const std::string& path,
                                        const Options& options,
                                        size_t num_threads) {
  obs::TraceSpan span("read_csv");
  // Every row but the last takes at least two bytes (content and a row
  // end), so a file of at most 2 * chunk_rows - 1 bytes is at most one
  // chunk: no pool would be made, and the scan can be skipped.
  const size_t chunk_rows =
      options.chunk_rows == 0 ? kDefaultChunkRows : options.chunk_rows;
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  if (num_threads == 1 || (!size_error && size < 2 * chunk_rows)) {
    return ReadFile(path, options.csv);
  }
  CsvChunkReader reader;
  Impl& impl = *reader.impl_;
  FAIRLAW_RETURN_NOT_OK(impl.Open(path, options));
  std::unique_ptr<ThreadPool> pool =
      MorselPool(num_threads, impl.bounds.starts.size());
  if (pool == nullptr) return ReadFile(path, options.csv);
  obs::GetCounter("csv.bytes_read")->Increment(impl.bounds.end);
  FAIRLAW_RETURN_NOT_OK(impl.Infer(pool.get(), RowScanner::kTableBlockSize));
  return impl.ParseAll(pool.get());
}

Result<Table> CsvChunkReader::ReadChunk(size_t index) const {
  const Impl& impl = *impl_;
  FAIRLAW_CHECK_MSG(impl.inferred && index < num_chunks(),
                    "ReadChunk needs InferSchema and a chunk index in range");
  obs::TraceSpan span("csv_chunk", impl.parent_path);
  FAIRLAW_ASSIGN_OR_RETURN(
      Table chunk,
      impl.WithRange(index, RowScanner::kBlockSize, [&](RowScanner* scanner) {
        return ParseTable(scanner, impl.RowsIn(index), impl.FirstRow(index),
                          impl.layout, impl.schema);
      }));
  obs::GetCounter("csv.chunks_streamed")->Increment();
  return chunk;
}

Result<std::optional<Table>> CsvChunkReader::Next() {
  if (impl_->next_chunk >= num_chunks()) return std::optional<Table>();
  FAIRLAW_ASSIGN_OR_RETURN(Table chunk, ReadChunk(impl_->next_chunk));
  ++impl_->next_chunk;
  return std::optional<Table>(std::move(chunk));
}

}  // namespace fairlaw::data
