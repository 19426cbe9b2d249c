#include "data/csv.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "base/check.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
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
/// It reads at most `limit` bytes, so a chunk's scanner stops at the end
/// of the chunk's byte range. This is the single tokenizer behind every
/// read: the first row, type inference and parsing.
class RowScanner {
 public:
  RowScanner(std::istream* input, char delimiter,
             uint64_t limit = ~uint64_t{0})
      : input_(input), delimiter_(delimiter), limit_(limit) {
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
                 static_cast<std::streamsize>(
                     std::min<uint64_t>(kBlockSize, limit_ - bytes_read_)));
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
  bool special_[256] = {};
  std::vector<char> buffer_ = std::vector<char>(2 * kBlockSize);
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

/// Appends one field to its typed column: null when its stripped text
/// is a null token, else its parsed value.
Status AppendField(std::string_view raw, const NullTokens& null_tokens,
                   Column* column) {
  if (null_tokens.Contains(StripWhitespace(raw))) {
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

/// The parse pass over one range: parses the `rows` rows `scanner`
/// yields straight into typed columns reserved to that count, so a
/// caller holds as many parsed rows as it asks for and never the text.
Result<Table> ParseRows(RowScanner* scanner, size_t rows, size_t first_row,
                        const Layout& layout, const Schema& schema) {
  const size_t num_columns = schema.num_fields();
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    columns.emplace_back(schema.field(c).type);
    columns.back().Reserve(rows);
  }
  std::vector<std::string_view> row;
  for (size_t r = 0; r < rows; ++r) {
    FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner->NextRow(&row));
    if (!has_row) return Changed();
    FAIRLAW_RETURN_NOT_OK(CheckWidth(row.size(), first_row + r, num_columns));
    for (size_t c = 0; c < num_columns; ++c) {
      FAIRLAW_RETURN_NOT_OK(
          AppendField(row[c], layout.null_tokens, &columns[c]));
    }
  }
  obs::GetCounter("csv.rows_loaded")->Increment(rows);
  return Table::Make(schema, std::move(columns));
}

/// Reads all of `input` as one range: the first row, then the inference
/// and the parse pass over the data rows, with no boundary scan.
Result<Table> ReadAll(std::unique_ptr<std::istream> input,
                      const CsvOptions& options) {
  obs::TraceSpan span("read_csv");
  FAIRLAW_ASSIGN_OR_RETURN(Layout layout, ReadLayout(input.get(), options));
  FAIRLAW_RETURN_NOT_OK(Seek(input.get(), layout.data_start));
  std::vector<ColumnTypeFlags> flags;
  size_t rows = 0;
  {  // the inference scanner's buffer goes before the parse pass starts
    RowScanner inference(input.get(), layout.delimiter);
    FAIRLAW_ASSIGN_OR_RETURN(
        rows, InferRows(&inference, layout.first_row, layout, &flags));
    obs::GetCounter("csv.bytes_read")
        ->Increment(layout.data_start + inference.bytes_read());
  }
  FAIRLAW_ASSIGN_OR_RETURN(Schema schema, ResolveSchema(layout, flags));
  FAIRLAW_RETURN_NOT_OK(Seek(input.get(), layout.data_start));
  RowScanner parse(input.get(), layout.delimiter);
  return ParseRows(&parse, rows, layout.first_row, layout, schema);
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
  /// `read` over a scanner limited to that range.
  template <typename Read>
  auto WithRange(size_t chunk, const Read& read) const
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
    RowScanner scanner(&input, layout.delimiter, end - begin);
    return read(&scanner);
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
  std::ifstream input(path, std::ios::binary);
  if (!input) return Status::IOError("cannot open '" + path + "' for reading");
  impl.path = path;
  impl.chunk_rows =
      options.chunk_rows == 0 ? kDefaultChunkRows : options.chunk_rows;
  FAIRLAW_ASSIGN_OR_RETURN(impl.layout, ReadLayout(&input, options.csv));
  FAIRLAW_RETURN_NOT_OK(Seek(&input, impl.layout.data_start));
  FAIRLAW_ASSIGN_OR_RETURN(
      impl.bounds,
      ScanChunkBounds(&input, impl.layout.data_start, impl.chunk_rows));
  obs::GetCounter("csv.bytes_read")->Increment(impl.bounds.end);
  return reader;
}

Status CsvChunkReader::InferSchema(ThreadPool* pool) {
  obs::TraceSpan span("csv_infer_schema");
  const Impl& impl = *impl_;
  struct Inferred {
    Status status;
    std::vector<ColumnTypeFlags> flags;
  };
  std::vector<Inferred> chunks(num_chunks());
  auto infer = [&impl, &chunks](size_t i) {
    Result<size_t> rows = impl.WithRange(i, [&](RowScanner* scanner) {
      return InferRows(scanner, impl.FirstRow(i), impl.layout,
                       &chunks[i].flags);
    });
    if (!rows.ok()) {
      chunks[i].status = rows.status();
    } else if (*rows != impl.RowsIn(i)) {
      chunks[i].status = Changed();
    }
  };
  if (pool == nullptr) {
    for (size_t i = 0; i < chunks.size(); ++i) infer(i);
  } else {
    pool->ParallelFor(chunks.size(), infer);
  }
  std::vector<ColumnTypeFlags> flags(impl.layout.names.size());
  for (const Inferred& chunk : chunks) {
    FAIRLAW_RETURN_NOT_OK(chunk.status);
    for (size_t c = 0; c < flags.size(); ++c) flags[c].Merge(chunk.flags[c]);
  }
  FAIRLAW_ASSIGN_OR_RETURN(impl_->schema, ResolveSchema(impl.layout, flags));
  impl_->inferred = true;
  return Status::OK();
}

Result<Table> CsvChunkReader::ReadChunk(size_t index) const {
  const Impl& impl = *impl_;
  FAIRLAW_CHECK_MSG(impl.inferred && index < num_chunks(),
                    "ReadChunk needs InferSchema and a chunk index in range");
  obs::TraceSpan span("csv_chunk", impl.parent_path);
  FAIRLAW_ASSIGN_OR_RETURN(
      Table chunk, impl.WithRange(index, [&](RowScanner* scanner) {
        return ParseRows(scanner, impl.RowsIn(index), impl.FirstRow(index),
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
