#include "data/csv.h"

#include <algorithm>
#include <atomic>
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

/// A string column's dictionary while a range is parsed.
using StringDictionary = stats::FirstSeenMap<std::monostate>;

/// Interns a string cell's text into slot `slot` of its column.
void StoreString(std::string_view raw, size_t slot, Column::Slots* column,
                 StringDictionary* dictionary) {
  const size_t code = dictionary->KeyIndex(raw);
  FAIRLAW_CHECK_MSG(code < Column::kNullCode,
                    "string dictionary would reach the null code");
  column->codes[slot] = static_cast<uint32_t>(code);
}

/// Stores a non-null cell (`text` is its stripped view) in slot `slot`
/// of a `type` column whose type is already known: one parse. False
/// when it is not a `type` value.
bool StoreValue(std::string_view raw, std::string_view text, DataType type,
                size_t slot, Column::Slots* column,
                StringDictionary* dictionary) {
  switch (type) {
    case DataType::kDouble: {
      const Result<double> value = ParseDouble(text);
      if (value.ok()) column->doubles[slot] = *value;
      return value.ok();
    }
    case DataType::kInt64: {
      const Result<int64_t> value = ParseInt64(text);
      if (value.ok()) column->int64s[slot] = *value;
      return value.ok();
    }
    case DataType::kBool: {
      const Result<bool> value = ParseBool(text);
      if (value.ok()) column->bools[slot] = *value ? 1 : 0;
      return value.ok();
    }
    case DataType::kString:
      StoreString(raw, slot, column, dictionary);
      return true;
  }
  return false;
}

/// O(1)-memory column type tracker: every read keeps one of these per
/// column and range instead of a token matrix. Priority: int64 > double >
/// bool > string; a column with no non-null values is string.
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

  /// Observe(text), storing the value in `slot` of a `type` column in the
  /// same visit from the parse Observe makes anyway: an int64 cell takes
  /// one ParseInt64 call. Only a double column parses an int64 token a
  /// second time, as a double, since `-0` is 0 as an int64 but -0.0 as a
  /// double. False when `text` is not a `type` value; the flags then
  /// rule `type` out.
  bool ObserveAndStore(std::string_view raw, std::string_view text,
                       DataType type, size_t slot, Column::Slots* column,
                       StringDictionary* dictionary) {
    any_value = true;
    if (all_bool) {
      const Result<bool> value = ParseBool(text);
      if (!value.ok()) {
        all_bool = false;
      } else if (type == DataType::kBool) {
        column->bools[slot] = *value ? 1 : 0;
      }
    }
    bool is_int = false;
    if (all_int) {
      const Result<int64_t> value = ParseInt64(text);
      is_int = value.ok();
      if (!is_int) {
        all_int = false;
      } else if (type == DataType::kInt64) {
        column->int64s[slot] = *value;
      }
    }
    if (all_double && (!is_int || type == DataType::kDouble)) {
      const Result<double> value = ParseDouble(text);
      if (!value.ok()) {
        all_double = false;
      } else if (type == DataType::kDouble) {
        column->doubles[slot] = *value;
      }
    }
    switch (type) {
      case DataType::kInt64:
        return all_int;
      case DataType::kDouble:
        return all_double;
      case DataType::kBool:
        return all_bool;
      case DataType::kString:
        StoreString(raw, slot, column, dictionary);
        return true;
    }
    return false;
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

Result<Schema> ResolveSchema(const Layout& layout,
                             const std::vector<ColumnTypeFlags>& flags) {
  std::vector<Field> fields(layout.names.size());
  for (size_t c = 0; c < fields.size(); ++c) {
    fields[c] = Field{layout.names[c], flags[c].Resolve()};
  }
  return Schema::Make(std::move(fields));
}

/// Whether two schemas of the same columns give each the same type.
bool SameTypes(const Schema& a, const Schema& b) {
  for (size_t c = 0; c < a.num_fields(); ++c) {
    if (a.field(c).type != b.field(c).type) return false;
  }
  return true;
}

/// Unwritten slot storage for `rows` rows of every column of `schema`.
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

/// Writes a null into slot `slot` of a `type` column: validity 0 and a
/// zero value (kNullCode in a string column).
void StoreNull(DataType type, size_t slot, Column::Slots* column) {
  column->valid[slot] = 0;
  switch (type) {
    case DataType::kDouble:
      column->doubles[slot] = 0.0;
      return;
    case DataType::kInt64:
      column->int64s[slot] = 0;
      return;
    case DataType::kBool:
      column->bools[slot] = 0;
      return;
    case DataType::kString:
      column->codes[slot] = Column::kNullCode;
      return;
  }
}

/// Where a range's rows are stored: slots [first_slot, ...) of
/// `columns`, whose types are `types`, with string cells interned into
/// `dictionaries` (one per column).
struct ParseTarget {
  std::vector<DataType> types;
  size_t first_slot = 0;
  std::vector<Column::Slots>* columns = nullptr;
  std::vector<StringDictionary>* dictionaries = nullptr;
  /// Cleared at the first non-null cell that is not a value of its
  /// column's type. The rows from there on are not stored.
  bool held = true;
};

ParseTarget TargetFor(const Schema& schema, size_t first_slot,
                      std::vector<Column::Slots>* columns,
                      std::vector<StringDictionary>* dictionaries) {
  ParseTarget target;
  target.types.resize(schema.num_fields());
  for (size_t c = 0; c < target.types.size(); ++c) {
    target.types[c] = schema.field(c).type;
  }
  target.first_slot = first_slot;
  target.columns = columns;
  target.dictionaries = dictionaries;
  dictionaries->resize(target.types.size());
  return target;
}

/// The one row loop behind every read. It reads up to `max_rows` rows
/// from `scanner`, the first of them file row `first_row`, checks each
/// row's width and, when `flags` is given, narrows them (one per column)
/// by every non-null cell. With a `target` it also stores each row in
/// its slot, in the same visit of the cell, for as long as target->held
/// (a target that starts out not held stores nothing): every slot of a
/// stored row is written, nulls included. Without `flags` the types are
/// known, and a cell is parsed only to be stored. Returns the rows read,
/// or the range's first defect.
Result<size_t> ParseRows(RowScanner* scanner, size_t max_rows,
                         size_t first_row, const Layout& layout,
                         std::vector<ColumnTypeFlags>* flags,
                         ParseTarget* target) {
  const size_t num_columns = layout.names.size();
  if (flags != nullptr) flags->assign(num_columns, ColumnTypeFlags{});
  bool storing = target != nullptr && target->held;
  std::vector<std::string_view> row;
  size_t rows = 0;
  for (; rows < max_rows; ++rows) {
    FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner->NextRow(&row));
    if (!has_row) break;
    FAIRLAW_RETURN_NOT_OK(CheckWidth(row.size(), first_row + rows,
                                     num_columns));
    for (size_t c = 0; c < num_columns; ++c) {
      const std::string_view text = StripWhitespace(row[c]);
      const bool null = layout.null_tokens.Contains(text);
      if (!storing) {
        if (!null && flags != nullptr) (*flags)[c].Observe(text);
        continue;
      }
      const size_t slot = target->first_slot + rows;
      const DataType type = target->types[c];
      Column::Slots* const column = &(*target->columns)[c];
      if (null) {
        StoreNull(type, slot, column);
        continue;
      }
      column->valid[slot] = 1;
      StringDictionary* const dictionary = &(*target->dictionaries)[c];
      const bool stored =
          flags == nullptr
              ? StoreValue(row[c], text, type, slot, column, dictionary)
              : (*flags)[c].ObserveAndStore(row[c], text, type, slot, column,
                                            dictionary);
      if (!stored) {
        storing = false;
        target->held = false;
      }
    }
  }
  return rows;
}

/// Where a file's chunks begin, found by the boundary scan.
struct ChunkBounds {
  size_t num_rows = 0;           // data rows in the file
  std::vector<uint64_t> starts;  // byte offset of each chunk's range
  uint64_t end = 0;              // the file's size
  /// Rows whose row end lies in the first read block: the rows the
  /// schema is guessed from.
  size_t first_block_rows = 0;
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
  std::vector<char> block(RowScanner::kBlockSize);
  uint64_t offset = start;               // file offset of block[0]
  uint64_t row_begin = start;            // where the current line begins
  size_t rows_to_boundary = chunk_rows;  // rows until the next chunk
  bool in_quotes = false;
  size_t blocks = 0;
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
    if (blocks++ == 0) bounds.first_block_rows = bounds.num_rows;
    offset += got;
  }
  if (input->bad()) return Status::IOError("error reading CSV stream");
  if (offset != row_begin) ++bounds.num_rows;
  if (blocks <= 1) bounds.first_block_rows = bounds.num_rows;
  bounds.starts.resize((bounds.num_rows + chunk_rows - 1) / chunk_rows);
  bounds.end = offset;
  return bounds;
}

/// A CSV input split into chunks by the boundary scan, and every read
/// over them: CsvChunkReader's state, and the whole-table reads.
struct ChunkedInput {
  using Options = CsvChunkReader::Options;

  std::string path;
  /// The stream a one-thread read reads every range from; null when each
  /// range opens `path` on a stream of its own.
  std::istream* stream = nullptr;
  size_t chunk_rows = kDefaultChunkRows;
  Layout layout;
  ChunkBounds bounds;
  /// The schema guessed from the first read block's rows, unless its
  /// column names repeat.
  std::optional<Schema> guess;
  /// Each chunk's type flags, written by ReadGuessedChunk and folded by
  /// ConfirmGuess.
  mutable std::vector<std::vector<ColumnTypeFlags>> guessed_flags;
  Schema schema;
  bool inferred = false;
  std::string parent_path;  // where worker spans nest
  size_t next_chunk = 0;    // Next()'s cursor

  size_t num_chunks() const { return bounds.starts.size(); }
  /// File row index of chunk `chunk`'s first row.
  size_t FirstRow(size_t chunk) const {
    return layout.first_row + chunk * chunk_rows;
  }
  size_t RowsIn(size_t chunk) const {
    return std::min(chunk_rows, bounds.num_rows - chunk * chunk_rows);
  }

  /// Runs `read` over a scanner of bytes [begin, end), reading
  /// `block_size` bytes at a time from `stream`, or else from a stream
  /// of its own.
  template <typename Read>
  auto WithBytes(uint64_t begin, uint64_t end, size_t block_size,
                 const Read& read) const
      -> decltype(read(std::declval<RowScanner*>())) {
    std::ifstream own;
    std::istream* input = stream;
    if (input == nullptr) {
      own.open(path, std::ios::binary);
      if (!own) {
        return Status::IOError("cannot open '" + path + "' for reading");
      }
      input = &own;
    }
    FAIRLAW_RETURN_NOT_OK(Seek(input, begin));
    RowScanner scanner(input, layout.delimiter, end - begin, block_size);
    return read(&scanner);
  }

  /// WithBytes over chunk `chunk`'s byte range.
  template <typename Read>
  auto WithRange(size_t chunk, size_t block_size, const Read& read) const
      -> decltype(read(std::declval<RowScanner*>())) {
    const uint64_t end = chunk + 1 < num_chunks() ? bounds.starts[chunk + 1]
                                                  : bounds.end;
    return WithBytes(bounds.starts[chunk], end, block_size, read);
  }

  /// Reads the first row, runs the boundary scan and guesses the schema,
  /// all from `input`.
  Status Open(std::istream* input, const CsvOptions& options) {
    FAIRLAW_ASSIGN_OR_RETURN(layout, ReadLayout(input, options));
    FAIRLAW_RETURN_NOT_OK(Seek(input, layout.data_start));
    FAIRLAW_ASSIGN_OR_RETURN(
        bounds, ScanChunkBounds(input, layout.data_start, chunk_rows));
    // The guess reads no further than the first block's rows. A defect
    // among them ends it there: the chunk that holds it reports it.
    FAIRLAW_RETURN_NOT_OK(Seek(input, layout.data_start));
    RowScanner scanner(input, layout.delimiter,
                       bounds.end - layout.data_start);
    std::vector<ColumnTypeFlags> flags;
    static_cast<void>(ParseRows(&scanner, bounds.first_block_rows,
                                layout.first_row, layout, &flags, nullptr));
    Result<Schema> guessed = ResolveSchema(layout, flags);
    if (guessed.ok()) guess = std::move(guessed).ValueOrDie();
    return Status::OK();
  }

  /// Open() over the file at `file`, whose ranges then open streams of
  /// their own.
  Status OpenFile(const std::string& file, const Options& options) {
    std::ifstream input(file, std::ios::binary);
    if (!input) {
      return Status::IOError("cannot open '" + file + "' for reading");
    }
    path = file;
    chunk_rows =
        options.chunk_rows == 0 ? kDefaultChunkRows : options.chunk_rows;
    return Open(&input, options.csv);
  }

  /// Parses chunk `chunk` under `types` into a table of its own. Its
  /// flags go to *flags; nullopt when a cell is not a value of its
  /// column's type. Without `flags` the types are the schema, and such a
  /// cell means the file changed.
  Result<std::optional<Table>> ParseChunk(
      size_t chunk, const Schema& types,
      std::vector<ColumnTypeFlags>* flags) const {
    std::vector<Column::Slots> columns = SizeColumns(types, RowsIn(chunk));
    std::vector<StringDictionary> dictionaries;
    ParseTarget target = TargetFor(types, 0, &columns, &dictionaries);
    FAIRLAW_ASSIGN_OR_RETURN(
        const size_t rows,
        WithRange(chunk, RowScanner::kBlockSize, [&](RowScanner* scanner) {
          return ParseRows(scanner, RowsIn(chunk), FirstRow(chunk), layout,
                           flags, &target);
        }));
    if (rows != RowsIn(chunk) || (flags == nullptr && !target.held)) {
      return Changed();
    }
    obs::GetCounter("csv.chunks_streamed")->Increment();
    if (!target.held) return std::optional<Table>();
    for (size_t c = 0; c < columns.size(); ++c) {
      columns[c].dictionary = std::move(dictionaries[c]);
    }
    obs::GetCounter("csv.rows_loaded")->Increment(rows);
    FAIRLAW_ASSIGN_OR_RETURN(Table table, MakeTable(types, std::move(columns)));
    return std::optional<Table>(std::move(table));
  }

  /// What reading one chunk of a whole file left behind.
  struct ParsedChunk {
    Status status;
    bool held = true;
    std::vector<ColumnTypeFlags> flags;
    std::vector<StringDictionary> dictionaries;
    std::vector<std::vector<uint32_t>> remaps;  // empty: codes stay
  };

  /// InferSchema() without its span: the flags of every chunk, read
  /// `block_size` bytes at a time, ANDed in chunk order.
  Status Infer(ThreadPool* pool, size_t block_size) {
    std::vector<ParsedChunk> chunks(num_chunks());
    auto infer = [this, &chunks, block_size](size_t i) {
      Result<size_t> rows = WithRange(i, block_size, [&](RowScanner* scanner) {
        return ParseRows(scanner, RowsIn(i), FirstRow(i), layout,
                         &chunks[i].flags, nullptr);
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
    for (const ParsedChunk& chunk : chunks) {
      FAIRLAW_RETURN_NOT_OK(chunk.status);
      for (size_t c = 0; c < flags.size(); ++c) flags[c].Merge(chunk.flags[c]);
    }
    FAIRLAW_ASSIGN_OR_RETURN(schema, ResolveSchema(layout, flags));
    inferred = true;
    return Status::OK();
  }

  /// Parses every chunk under `types` into one table's columns, allocated
  /// here at num_rows and first written by the chunk that owns the rows:
  /// on `pool`, each chunk with string dictionaries of its own, which
  /// merge in chunk order, and the chunks whose codes that renumbers are
  /// remapped on the pool; without one, in order on this thread, all
  /// into the same dictionaries. The chunks' flags, ANDed in chunk
  /// order, go to *flags when it is given. nullopt when a cell is not a
  /// value of its column's type; else the lowest chunk's first defect,
  /// or the table.
  Result<std::optional<Table>> ParseAll(ThreadPool* pool, const Schema& types,
                                        std::vector<ColumnTypeFlags>* flags) {
    const size_t num_columns = types.num_fields();
    std::vector<Column::Slots> columns = SizeColumns(types, bounds.num_rows);
    std::vector<ParsedChunk> chunks(num_chunks());
    std::vector<StringDictionary> shared;  // the one-thread dictionaries
    const size_t block_size =
        pool == nullptr ? RowScanner::kBlockSize : RowScanner::kTableBlockSize;
    // Once a chunk's cell rules `types` out, the table is dropped: chunks
    // that start later only narrow their flags.
    std::atomic<bool> failed{false};
    auto parse = [&](size_t i) {
      ParsedChunk& chunk = chunks[i];
      ParseTarget target =
          TargetFor(types, i * chunk_rows, &columns,
                    pool == nullptr ? &shared : &chunk.dictionaries);
      target.held = !failed.load(std::memory_order_relaxed);
      Result<size_t> rows = WithRange(i, block_size, [&](RowScanner* scanner) {
        return ParseRows(scanner, RowsIn(i), FirstRow(i), layout,
                         flags == nullptr ? nullptr : &chunk.flags, &target);
      });
      if (!rows.ok()) {
        chunk.status = rows.status();
      } else if (*rows != RowsIn(i)) {
        chunk.status = Changed();
      }
      chunk.held = target.held;
      if (!target.held) failed.store(true, std::memory_order_relaxed);
    };
    if (pool == nullptr) {
      for (size_t i = 0; i < chunks.size(); ++i) {
        parse(i);
        if (!chunks[i].status.ok()) break;
      }
    } else {
      pool->ParallelFor(chunks.size(), parse);
    }
    if (flags != nullptr) flags->assign(num_columns, ColumnTypeFlags{});
    bool held = true;
    for (const ParsedChunk& chunk : chunks) {
      FAIRLAW_RETURN_NOT_OK(chunk.status);
      for (size_t c = 0; flags != nullptr && c < num_columns; ++c) {
        (*flags)[c].Merge(chunk.flags[c]);
      }
      held = held && chunk.held;
    }
    if (!held) return std::optional<Table>();
    if (pool == nullptr) {
      for (size_t c = 0; c < num_columns && !chunks.empty(); ++c) {
        columns[c].dictionary = std::move(shared[c]);
      }
    } else {
      MergeDictionaries(pool, types, &columns, &chunks);
    }
    FAIRLAW_ASSIGN_OR_RETURN(Table table, MakeTable(types, std::move(columns)));
    return std::optional<Table>(std::move(table));
  }

  /// First-seen dictionaries merged in chunk order give the whole file's
  /// first-seen order (DESIGN.md §14, fact 2); the codes of each chunk
  /// the merge renumbers are remapped on `pool`.
  void MergeDictionaries(ThreadPool* pool, const Schema& types,
                         std::vector<Column::Slots>* columns,
                         std::vector<ParsedChunk>* chunks) const {
    const size_t num_columns = types.num_fields();
    for (ParsedChunk& chunk : *chunks) chunk.remaps.resize(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      if (types.field(c).type != DataType::kString) continue;
      StringDictionary& merged = (*columns)[c].dictionary;
      for (ParsedChunk& chunk : *chunks) {
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
    pool->ParallelFor(chunks->size(), [&](size_t i) {
      for (size_t c = 0; c < num_columns; ++c) {
        const std::vector<uint32_t>& remap = (*chunks)[i].remaps[c];
        if (remap.empty()) continue;
        uint32_t* const codes = (*columns)[c].codes.data() + i * chunk_rows;
        for (size_t r = 0; r < RowsIn(i); ++r) {
          if (codes[r] != Column::kNullCode) codes[r] = remap[codes[r]];
        }
      }
    });
  }

  /// Reads the whole file into one table (DESIGN.md §14): one pass under
  /// the guessed schema, confirmed by the chunks' flags; when the guess
  /// was wrong, or there is none, a second pass under the schema the
  /// flags resolve. Counts csv.rows_loaded, and csv.chunks_reparsed for
  /// the second pass after a wrong guess.
  Result<Table> ReadTable(ThreadPool* pool) {
    if (guess.has_value()) {
      std::vector<ColumnTypeFlags> flags;
      FAIRLAW_ASSIGN_OR_RETURN(std::optional<Table> table,
                               ParseAll(pool, *guess, &flags));
      FAIRLAW_ASSIGN_OR_RETURN(schema, ResolveSchema(layout, flags));
      if (table.has_value() && SameTypes(schema, *guess)) {
        obs::GetCounter("csv.rows_loaded")->Increment(bounds.num_rows);
        return std::move(*table);
      }
      obs::GetCounter("csv.chunks_reparsed")->Increment(num_chunks());
    } else {
      FAIRLAW_RETURN_NOT_OK(Infer(pool, pool == nullptr
                                            ? RowScanner::kBlockSize
                                            : RowScanner::kTableBlockSize));
    }
    FAIRLAW_ASSIGN_OR_RETURN(std::optional<Table> table,
                             ParseAll(pool, schema, nullptr));
    if (!table.has_value()) return Changed();
    obs::GetCounter("csv.rows_loaded")->Increment(bounds.num_rows);
    return std::move(*table);
  }
};

/// Reads all of `input` on this thread as CsvChunkReader::ReadTable
/// reads a file without a pool, at `chunk_rows`-row chunks.
Result<Table> ReadAll(std::istream* input, const CsvOptions& options,
                      size_t chunk_rows = kDefaultChunkRows) {
  ChunkedInput impl;
  impl.stream = input;
  impl.chunk_rows = chunk_rows;
  FAIRLAW_RETURN_NOT_OK(impl.Open(input, options));
  obs::GetCounter("csv.bytes_read")->Increment(impl.bounds.end);
  return impl.ReadTable(nullptr);
}

/// ReadAll over the file at `path`.
Result<Table> ReadFile(const std::string& path, const CsvOptions& options,
                       size_t chunk_rows = kDefaultChunkRows) {
  std::ifstream input(path, std::ios::binary);
  if (!input) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadAll(&input, options, chunk_rows);
}

}  // namespace

struct CsvChunkReader::Impl : ChunkedInput {};

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

CsvChunkReader::CsvChunkReader() : impl_(std::make_unique<Impl>()) {}
CsvChunkReader::CsvChunkReader(CsvChunkReader&&) noexcept = default;
CsvChunkReader& CsvChunkReader::operator=(CsvChunkReader&&) noexcept =
    default;
CsvChunkReader::~CsvChunkReader() = default;

const Schema& CsvChunkReader::schema() const { return impl_->schema; }
size_t CsvChunkReader::num_rows() const { return impl_->bounds.num_rows; }
size_t CsvChunkReader::num_chunks() const { return impl_->num_chunks(); }
bool CsvChunkReader::has_guess() const { return impl_->guess.has_value(); }

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
  FAIRLAW_RETURN_NOT_OK(impl.OpenFile(path, options));
  if (impl.guess.has_value()) impl.guessed_flags.resize(impl.num_chunks());
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
  // chunk: no pool would be made.
  const size_t chunk_rows =
      options.chunk_rows == 0 ? kDefaultChunkRows : options.chunk_rows;
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  if (num_threads == 1 || (!size_error && size < 2 * chunk_rows)) {
    return ReadFile(path, options.csv, chunk_rows);
  }
  CsvChunkReader reader;
  Impl& impl = *reader.impl_;
  FAIRLAW_RETURN_NOT_OK(impl.OpenFile(path, options));
  std::unique_ptr<ThreadPool> pool =
      MorselPool(num_threads, impl.num_chunks());
  if (pool == nullptr) return ReadFile(path, options.csv, chunk_rows);
  obs::GetCounter("csv.bytes_read")->Increment(impl.bounds.end);
  return impl.ReadTable(pool.get());
}

Result<Table> CsvChunkReader::ReadChunk(size_t index) const {
  const Impl& impl = *impl_;
  FAIRLAW_CHECK_MSG(impl.inferred && index < num_chunks(),
                    "ReadChunk needs the schema and a chunk index in range");
  obs::TraceSpan span("csv_chunk", impl.parent_path);
  FAIRLAW_ASSIGN_OR_RETURN(std::optional<Table> chunk,
                           impl.ParseChunk(index, impl.schema, nullptr));
  return std::move(*chunk);
}

Result<std::optional<Table>> CsvChunkReader::ReadGuessedChunk(
    size_t index) const {
  const Impl& impl = *impl_;
  FAIRLAW_CHECK_MSG(impl.guess.has_value() && index < num_chunks(),
                    "ReadGuessedChunk needs a guess and a chunk index in "
                    "range");
  obs::TraceSpan span("csv_chunk", impl.parent_path);
  return impl.ParseChunk(index, *impl.guess, &impl.guessed_flags[index]);
}

Result<bool> CsvChunkReader::ConfirmGuess() {
  Impl& impl = *impl_;
  FAIRLAW_CHECK_MSG(impl.guess.has_value(), "ConfirmGuess needs a guess");
  impl.inferred = true;
  std::vector<ColumnTypeFlags> flags(impl.layout.names.size());
  for (const std::vector<ColumnTypeFlags>& chunk : impl.guessed_flags) {
    FAIRLAW_CHECK_MSG(chunk.size() == flags.size(),
                      "ConfirmGuess needs every chunk read by "
                      "ReadGuessedChunk");
    for (size_t c = 0; c < flags.size(); ++c) flags[c].Merge(chunk[c]);
  }
  impl.guessed_flags.clear();
  FAIRLAW_ASSIGN_OR_RETURN(impl.schema, ResolveSchema(impl.layout, flags));
  if (SameTypes(impl.schema, *impl.guess)) return true;
  obs::GetCounter("csv.chunks_reparsed")->Increment(impl.num_chunks());
  return false;
}

Result<std::optional<Table>> CsvChunkReader::Next() {
  if (impl_->next_chunk >= num_chunks()) return std::optional<Table>();
  FAIRLAW_ASSIGN_OR_RETURN(Table chunk, ReadChunk(impl_->next_chunk));
  ++impl_->next_chunk;
  return std::optional<Table>(std::move(chunk));
}

}  // namespace fairlaw::data
