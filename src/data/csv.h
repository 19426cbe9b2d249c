#ifndef FAIRLAW_DATA_CSV_H_
#define FAIRLAW_DATA_CSV_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "base/result.h"
#include "data/table.h"

namespace fairlaw {
class ThreadPool;
}  // namespace fairlaw

namespace fairlaw::data {

/// Default chunk size of the streaming reader: 16k rows keeps the chunks
/// four workers hold at once to a few MB while still amortizing
/// per-morsel scheduling overhead. The pooled whole-table read splits
/// the file at the same size, and the score-distribution loop counts
/// its rows in chunks of it; an in-memory table is still audited as one
/// chunk (DESIGN.md §14).
inline constexpr size_t kDefaultChunkRows = 16384;

/// CSV parsing options.
struct CsvOptions {
  char delimiter = ',';
  /// When true the first row provides column names; otherwise columns are
  /// named c0, c1, ...
  bool has_header = true;
  /// Strings that read as null (after whitespace stripping).
  std::vector<std::string> null_tokens = {"", "NA", "null", "NULL"};
};

/// Parses CSV text into a table. Column types are inferred from the data:
/// a column is int64 if every non-null cell parses as an integer, else
/// double if every non-null cell parses as a number, else bool if every
/// non-null cell is true/false, else string. Quoted fields ("a,b" with
/// embedded delimiters and "" escapes) are supported.
///
/// This and ReadCsvFile read the input as CsvChunkReader::ReadTable reads
/// a file without a pool: the boundary scan, then the chunks in order on
/// this thread, each parsed in one pass under the schema guessed from the
/// first read block's rows, and a second pass only when the chunks' type
/// flags resolve another schema. So every ingestion path infers the same
/// schema, parses the same cells and reports the same first defect in
/// file order.
FAIRLAW_NODISCARD Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options = {});

/// Reads and parses a CSV file, serially, as ReadCsvString does.
FAIRLAW_NODISCARD Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// ReadCsvFile on up to `num_threads` workers (0 = one per hardware
/// thread): CsvChunkReader::ReadTable at the default chunk size. The
/// table, the error and the obs probes are ReadCsvFile's for every
/// thread count; one thread is ReadCsvFile itself.
FAIRLAW_NODISCARD Result<Table> ReadCsvFile(const std::string& path,
                                            const CsvOptions& options,
                                            size_t num_threads);

/// Serializes a table to CSV text (header row + data rows; nulls render
/// as empty fields; strings containing the delimiter, quotes, or newlines
/// are quoted).
FAIRLAW_NODISCARD Result<std::string> WriteCsvString(const Table& table,
                                   const CsvOptions& options = {});

/// Writes a table to a CSV file.
FAIRLAW_NODISCARD Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// Streams a CSV file chunk-at-a-time so ingestion is out-of-core: peak
/// memory is bounded by the chunks being read, never the file size.
///
/// Reading takes these steps (DESIGN.md §14):
///   1. Scan() parses the first row (header or first data row) and runs
///      one quote-aware byte scan over the rest with the row rules of
///      the tokenizer: CR, LF or CRLF ends a row, blank lines are
///      skipped, and every '"' toggles quoting. It counts the rows and
///      keeps each chunk's starting byte offset (O(chunks) memory). It
///      also guesses the schema from the rows of the first read block.
///   2. ReadGuessedChunk(i) reads chunk i once: each cell narrows the
///      chunk's per-column all-int/all-double/all-bool flags and is
///      stored under its guessed type in the same visit.
///   3. ConfirmGuess() ANDs the chunks' flags in chunk order. When they
///      resolve the guessed schema, every chunk step 2 returned is the
///      chunk ReadChunk(i) returns; otherwise the chunks are read again
///      with ReadChunk(i) under the resolved schema.
/// InferSchema() is the flags pass of steps 2 and 3 alone, for a reader
/// that must know the schema before it reads a chunk (and for a header
/// whose names repeat, where there is no guess). The lowest chunk's
/// defect wins, so the first defect in file order is the one reported.
/// Step 2 and ReadChunk run per chunk, so the morsel loop runs them on
/// its workers. Make() is Scan() and InferSchema() on the calling thread,
/// and Next() reads the chunks in order: together they are a complete
/// serial reader. ReadTable() reads the whole file into one table.
class CsvChunkReader {
 public:
  struct Options {
    CsvOptions csv;
    /// Rows per emitted chunk; 0 falls back to kDefaultChunkRows.
    size_t chunk_rows = kDefaultChunkRows;
  };

  /// Scan() then InferSchema(nullptr). Fails on IO errors, ragged rows,
  /// unterminated quotes, an empty file, or duplicate header names.
  FAIRLAW_NODISCARD static Result<CsvChunkReader> Make(
      const std::string& path, const Options& options);

  /// Opens `path`, runs the boundary scan and guesses the schema. Fails
  /// on IO errors, an empty file, or a defect in the first row.
  /// InferSchema() or ConfirmGuess() must run before ReadChunk().
  FAIRLAW_NODISCARD static Result<CsvChunkReader> Scan(
      const std::string& path, const Options& options);

  /// Infers the schema chunk by chunk, on `pool`'s workers when it is
  /// not null. Reports the first defect in file order (ragged row,
  /// unterminated quote), else duplicate header names.
  FAIRLAW_NODISCARD Status InferSchema(ThreadPool* pool);

  /// Reads all of `path` into one table on the pool MorselPool grants
  /// `num_threads` once the scan has counted the chunks. Without a pool
  /// (one thread, at most one chunk) it is ReadCsvFile's serial read. On
  /// columns the calling thread allocates once at num_rows() without
  /// writing them, each worker parses its chunks straight into their row
  /// ranges in one pass under the guessed schema, with chunk-local string
  /// dictionaries; the chunks' type flags, ANDed in chunk order, confirm
  /// the guess or resolve the schema of a second pass. The dictionaries
  /// merge in chunk order through FirstSeenMap, and the codes of each
  /// chunk they renumber are remapped on the pool. The table (cells,
  /// validity, dictionaries in first-seen order) and the error (the
  /// lowest chunk's first defect) equal ReadCsvFile's, and so do the obs
  /// probes: one `read_csv` span, `csv.bytes_read`, `csv.rows_loaded`,
  /// and `csv.chunks_reparsed` after a wrong guess.
  FAIRLAW_NODISCARD static Result<Table> ReadTable(const std::string& path,
                                                   const Options& options,
                                                   size_t num_threads);

  CsvChunkReader(CsvChunkReader&&) noexcept;
  CsvChunkReader& operator=(CsvChunkReader&&) noexcept;
  ~CsvChunkReader();

  /// The schema, once InferSchema() or ConfirmGuess() resolved it.
  const Schema& schema() const;

  /// Whether Scan() guessed a schema: false when the header's names
  /// repeat, and then only InferSchema() reports the file's defects.
  bool has_guess() const;

  /// Total data rows in the file (known after the scan).
  size_t num_rows() const;

  /// Chunks in all: num_rows() over the chunk size, rounded up.
  size_t num_chunks() const;

  /// Parses chunk `index` (< num_chunks()) under schema() from its own
  /// byte range through its own stream. Safe to call from several
  /// threads at once.
  FAIRLAW_NODISCARD Result<Table> ReadChunk(size_t index) const;

  /// Reads chunk `index` (< num_chunks()) once under the guessed schema
  /// (needs has_guess()) and keeps its type flags for ConfirmGuess(). It
  /// returns the chunk, or nullopt once a cell of it is not a value of
  /// its column's guessed type (the guess is then wrong), or the chunk's
  /// first defect. Safe to call from several threads at once, for
  /// distinct chunks.
  FAIRLAW_NODISCARD Result<std::optional<Table>> ReadGuessedChunk(
      size_t index) const;

  /// After ReadGuessedChunk read every chunk without a defect (a chunk it
  /// never read is a checked failure): ANDs their flags in chunk order
  /// into schema(). True when it is the guessed
  /// schema, so every chunk ReadGuessedChunk returned is the chunk
  /// ReadChunk returns. False when the chunks must be read again with
  /// ReadChunk; it then counts them in `csv.chunks_reparsed`.
  FAIRLAW_NODISCARD Result<bool> ConfirmGuess();

  /// Reads the next chunk in file order (1..chunk_rows rows), or nullopt
  /// once the file is exhausted.
  FAIRLAW_NODISCARD Result<std::optional<Table>> Next();

 private:
  CsvChunkReader();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_CSV_H_
