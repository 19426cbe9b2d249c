// Fuzz harness over the CSV readers. Each input is one CSV file's bytes,
// read with the default options. ReadCsvString must give the oracle's
// table (RowsDiffer in tests/support/csv_oracle.h: same schema,
// validity, cell values with doubles compared bitwise, and string
// dictionaries) or fail with the oracle's first-defect error text. A
// CsvChunkReader streaming the same bytes from a temp file at 1-row and
// at 3-row chunks must tile that table row for row, or report the same
// error first: read serially (Make, then Next), and with the schema
// inferred on a 4-worker pool and the chunks read last to first on that
// pool, so a chunk boundary the scan gets wrong shows as a cell, row
// count or error text the oracle does not have. It is also read as the
// streamed audit reads it: each chunk once under the schema guessed from
// the first read block, and all again when the chunks' flags resolve
// another schema. The same file read whole by CsvChunkReader::ReadTable
// at 1- and 3-row chunks on 4 threads must equal ReadCsvString's table
// (schema, validity, cells, dictionaries in first-seen order) or fail
// with its error text.
//
// Built with -fsanitize=fuzzer this is a libFuzzer target. Linked with
// replay_main.cc it is the replay driver csv_fuzz_replay instead.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "data/csv.h"
#include "data/table.h"
#include "support/csv_oracle.h"

namespace {

namespace data = fairlaw::data;

[[noreturn]] void Fail(const std::string& text, const std::string& what) {
  std::fprintf(stderr, "csv_fuzz: %s\n  input (%zu bytes): %.200s\n",
               what.c_str(), text.size(), text.c_str());
  std::abort();
}

/// Streams `path` at `chunk_rows` through Make and Next and checks it
/// against the oracle's result.
void CheckSerialChunks(const std::string& text, const std::string& path,
                       const fairlaw::Result<data::Table>& oracle,
                       size_t chunk_rows) {
  const std::string label =
      "serial chunk_rows=" + std::to_string(chunk_rows) + ": ";
  data::CsvChunkReader::Options options;
  options.chunk_rows = chunk_rows;
  fairlaw::Result<data::CsvChunkReader> reader =
      data::CsvChunkReader::Make(path, options);
  if (!reader.ok() || !oracle.ok()) {
    const std::string got = reader.status().ToString();
    if (got != oracle.status().ToString()) {
      Fail(text, label + "Make says '" + got + "', the oracle '" +
                     oracle.status().ToString() + "'");
    }
    if (!reader.ok()) return;
  }
  size_t offset = 0;
  for (;;) {
    fairlaw::Result<std::optional<data::Table>> chunk = reader->Next();
    if (!chunk.ok()) {
      // Only a defect the oracle also reports may stop the stream.
      if (oracle.ok() ||
          chunk.status().ToString() != oracle.status().ToString()) {
        Fail(text, label + "Next failed: " + chunk.status().ToString());
      }
      return;
    }
    if (!chunk->has_value()) break;
    if (!oracle.ok()) {
      continue;  // the defect must still surface later in the stream
    }
    const data::Table& table = **chunk;
    if (table.num_rows() == 0 || table.num_rows() > chunk_rows) {
      Fail(text, label + "a chunk of " + std::to_string(table.num_rows()) +
                     " rows");
    }
    const std::string difference = data::RowsDiffer(*oracle, offset, table);
    if (!difference.empty()) Fail(text, label + difference);
    offset += table.num_rows();
  }
  if (!oracle.ok()) {
    Fail(text, label + "the stream ended without the oracle's error '" +
                   oracle.status().ToString() + "'");
  }
  if (offset != oracle->num_rows()) {
    Fail(text, label + "streamed " + std::to_string(offset) +
                   " rows, the oracle read " +
                   std::to_string(oracle->num_rows()));
  }
}

/// Scans `path` at `chunk_rows`, infers the schema on a 4-worker pool
/// and reads the chunks last to first on it, then checks them in file
/// order against the oracle's result.
void CheckParallelChunks(const std::string& text, const std::string& path,
                         const fairlaw::Result<data::Table>& oracle,
                         size_t chunk_rows) {
  static fairlaw::ThreadPool pool(4);
  const std::string label =
      "parallel chunk_rows=" + std::to_string(chunk_rows) + ": ";
  data::CsvChunkReader::Options options;
  options.chunk_rows = chunk_rows;
  fairlaw::Result<data::CsvChunkReader> reader =
      data::CsvChunkReader::Scan(path, options);
  fairlaw::Status status = reader.status();
  if (status.ok()) status = reader->InferSchema(&pool);
  if (!status.ok() || !oracle.ok()) {
    // Every defect the oracle reports is found before a chunk is read.
    if (status.ToString() != oracle.status().ToString()) {
      Fail(text, label + "Scan/InferSchema say '" + status.ToString() +
                     "', the oracle '" + oracle.status().ToString() + "'");
    }
    return;
  }
  const size_t num_chunks = reader->num_chunks();
  std::vector<fairlaw::Result<data::Table>> chunks(
      num_chunks, fairlaw::Status::Internal("chunk not read"));
  pool.ParallelFor(num_chunks, [&](size_t i) {
    const size_t index = num_chunks - 1 - i;
    chunks[index] = reader->ReadChunk(index);
  });
  size_t offset = 0;
  for (const fairlaw::Result<data::Table>& chunk : chunks) {
    if (!chunk.ok()) {
      Fail(text, label + "ReadChunk failed: " + chunk.status().ToString());
    }
    if (chunk->num_rows() == 0 || chunk->num_rows() > chunk_rows) {
      Fail(text, label + "a chunk of " + std::to_string(chunk->num_rows()) +
                     " rows");
    }
    const std::string difference = data::RowsDiffer(*oracle, offset, *chunk);
    if (!difference.empty()) Fail(text, label + difference);
    offset += chunk->num_rows();
  }
  if (offset != oracle->num_rows() || reader->num_rows() != offset) {
    Fail(text, label + "read " + std::to_string(offset) + " rows of " +
                   std::to_string(reader->num_rows()) + ", the oracle " +
                   std::to_string(oracle->num_rows()));
  }
}

/// Scans `path` at `chunk_rows` and reads it as the streamed audit does,
/// on a 4-worker pool with the chunks last to first: every chunk once
/// under the guessed schema, and when ConfirmGuess says the guess was
/// wrong, every chunk again under the resolved one. The lowest chunk's
/// error must be the oracle's, and the chunks must tile its table.
void CheckGuessedChunks(const std::string& text, const std::string& path,
                        const fairlaw::Result<data::Table>& oracle,
                        size_t chunk_rows) {
  static fairlaw::ThreadPool pool(4);
  const std::string label =
      "guessed chunk_rows=" + std::to_string(chunk_rows) + ": ";
  data::CsvChunkReader::Options options;
  options.chunk_rows = chunk_rows;
  fairlaw::Result<data::CsvChunkReader> reader =
      data::CsvChunkReader::Scan(path, options);
  fairlaw::Status status = reader.status();
  const size_t num_chunks = status.ok() ? reader->num_chunks() : 0;
  std::vector<fairlaw::Status> statuses(num_chunks);
  std::vector<std::optional<data::Table>> chunks(num_chunks);
  bool held = false;
  if (status.ok() && reader->has_guess()) {
    pool.ParallelFor(num_chunks, [&](size_t i) {
      const size_t index = num_chunks - 1 - i;
      fairlaw::Result<std::optional<data::Table>> chunk =
          reader->ReadGuessedChunk(index);
      statuses[index] = chunk.status();
      if (chunk.ok()) chunks[index] = std::move(*chunk);
    });
    for (const fairlaw::Status& chunk : statuses) {
      if (status.ok()) status = chunk;
    }
    if (status.ok()) {
      fairlaw::Result<bool> confirmed = reader->ConfirmGuess();
      status = confirmed.status();
      held = confirmed.ok() && *confirmed;
    }
  } else if (status.ok()) {
    status = reader->InferSchema(&pool);
  }
  if (!status.ok() || !oracle.ok()) {
    if (status.ToString() != oracle.status().ToString()) {
      Fail(text, label + "the guessed read says '" + status.ToString() +
                     "', the oracle '" + oracle.status().ToString() + "'");
    }
    return;
  }
  if (!held) {
    pool.ParallelFor(num_chunks, [&](size_t i) {
      const size_t index = num_chunks - 1 - i;
      fairlaw::Result<data::Table> chunk = reader->ReadChunk(index);
      if (!chunk.ok()) {
        Fail(text, label + "ReadChunk failed: " + chunk.status().ToString());
      }
      chunks[index] = std::move(*chunk);
    });
  }
  size_t offset = 0;
  for (const std::optional<data::Table>& chunk : chunks) {
    if (!chunk.has_value()) {
      Fail(text, label + "the guess held but a chunk is missing");
    }
    const std::string difference = data::RowsDiffer(*oracle, offset, *chunk);
    if (!difference.empty()) Fail(text, label + difference);
    offset += chunk->num_rows();
  }
  if (offset != oracle->num_rows()) {
    Fail(text, label + "read " + std::to_string(offset) + " rows, the oracle " +
                   std::to_string(oracle->num_rows()));
  }
}

/// Reads `path` whole at `chunk_rows` on 4 threads and checks it
/// against ReadCsvString's result.
void CheckPooledTable(const std::string& text, const std::string& path,
                      const fairlaw::Result<data::Table>& whole,
                      size_t chunk_rows) {
  const std::string label =
      "pooled chunk_rows=" + std::to_string(chunk_rows) + ": ";
  data::CsvChunkReader::Options options;
  options.chunk_rows = chunk_rows;
  const fairlaw::Result<data::Table> pooled =
      data::CsvChunkReader::ReadTable(path, options, 4);
  if (pooled.status().ToString() != whole.status().ToString()) {
    Fail(text, label + "ReadTable says '" + pooled.status().ToString() +
                   "', ReadCsvString '" + whole.status().ToString() + "'");
  }
  if (!pooled.ok()) return;
  if (pooled->num_rows() != whole->num_rows()) {
    Fail(text, label + "read " + std::to_string(pooled->num_rows()) +
                   " rows, ReadCsvString " +
                   std::to_string(whole->num_rows()));
  }
  const std::string difference = data::RowsDiffer(*whole, 0, *pooled);
  if (!difference.empty()) Fail(text, label + difference);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const fairlaw::Result<data::Table> oracle = data::ReadCsvOracle(text);
  const fairlaw::Result<data::Table> whole = data::ReadCsvString(text);
  if (whole.ok() != oracle.ok() ||
      whole.status().ToString() != oracle.status().ToString()) {
    Fail(text, "ReadCsvString says '" + whole.status().ToString() +
                   "', the oracle '" + oracle.status().ToString() + "'");
  }
  if (whole.ok()) {
    if (whole->num_rows() != oracle->num_rows()) {
      Fail(text, "ReadCsvString read " + std::to_string(whole->num_rows()) +
                     " rows, the oracle " +
                     std::to_string(oracle->num_rows()));
    }
    const std::string difference = data::RowsDiffer(*oracle, 0, *whole);
    if (!difference.empty()) Fail(text, "ReadCsvString: " + difference);
  }

  // One file per process, rewritten for each input.
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fairlaw_csv_fuzz." + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out.good()) Fail(text, "cannot write " + path);
  }
  for (size_t chunk_rows : {size_t{1}, size_t{3}}) {
    CheckSerialChunks(text, path, oracle, chunk_rows);
    CheckParallelChunks(text, path, oracle, chunk_rows);
    CheckGuessedChunks(text, path, oracle, chunk_rows);
    CheckPooledTable(text, path, whole, chunk_rows);
  }
  std::remove(path.c_str());
  return 0;
}
