#ifndef FAIRLAW_DATA_CSV_H_
#define FAIRLAW_DATA_CSV_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "base/result.h"
#include "data/table.h"

namespace fairlaw::data {

/// Default chunk size of the streaming reader: 64k rows keeps a chunk's
/// numeric columns L2-resident while still amortizing per-morsel
/// scheduling overhead. Only a streamed CSV is chunked; an in-memory
/// table is always audited as one chunk (DESIGN.md §14).
inline constexpr size_t kDefaultChunkRows = 65536;

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
/// This and ReadCsvFile drain the same two-pass reader CsvChunkReader
/// streams (a type-inference pass, then a parse pass over the rewound
/// input) into one table, so every ingestion path infers the same schema,
/// parses the same cells and reports the same first defect in file order.
FAIRLAW_NODISCARD Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options = {});

/// Reads and parses a CSV file.
FAIRLAW_NODISCARD Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table to CSV text (header row + data rows; nulls render
/// as empty fields; strings containing the delimiter, quotes, or newlines
/// are quoted).
FAIRLAW_NODISCARD Result<std::string> WriteCsvString(const Table& table,
                                   const CsvOptions& options = {});

/// Writes a table to a CSV file.
FAIRLAW_NODISCARD Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// Streams a CSV file chunk-at-a-time so ingestion is out-of-core: peak
/// memory is bounded by the chunk size, never the file size.
///
/// Make() runs the inference pass over the whole file (O(columns) state:
/// per-column all-int/all-double/all-bool trackers plus the ragged-row
/// check). Next() then parses the rewound file, emitting tables of at most
/// `chunk_rows` rows until the file is exhausted. Both passes scan each
/// row into views over one reused buffer (the row plus a 64 KiB read
/// block) and classify cells without allocating; Next() appends parsed
/// values straight into typed columns reserved to the chunk's row count.
class CsvChunkReader {
 public:
  struct Options {
    CsvOptions csv;
    /// Rows per emitted chunk; 0 falls back to kDefaultChunkRows.
    size_t chunk_rows = kDefaultChunkRows;
  };

  /// Opens `path` and runs the inference pass. Fails on IO errors, ragged
  /// rows, unterminated quotes, an empty file, or duplicate header names.
  FAIRLAW_NODISCARD static Result<CsvChunkReader> Make(
      const std::string& path, const Options& options);
  FAIRLAW_NODISCARD static Result<CsvChunkReader> Make(const std::string& path);

  CsvChunkReader(CsvChunkReader&&) noexcept;
  CsvChunkReader& operator=(CsvChunkReader&&) noexcept;
  ~CsvChunkReader();

  /// The inferred schema.
  const Schema& schema() const;

  /// Total data rows in the file (known after the inference pass).
  size_t num_rows() const;

  /// Data rows emitted by Next() so far.
  size_t rows_read() const;

  /// Chunks Next() emits in all: num_rows() over the chunk size, rounded
  /// up.
  size_t num_chunks() const;

  /// Parses and returns the next chunk (1..chunk_rows rows), or nullopt
  /// once the file is exhausted.
  FAIRLAW_NODISCARD Result<std::optional<Table>> Next();

 private:
  CsvChunkReader();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_CSV_H_
