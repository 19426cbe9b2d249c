#ifndef FAIRLAW_DATA_CHUNKED_H_
#define FAIRLAW_DATA_CHUNKED_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/bitmap.h"

namespace fairlaw::data {

/// Default morsel size for the chunked audit engine: 64k rows keeps a
/// chunk's bitmaps (1k words) and numeric columns L2-resident while still
/// amortizing per-morsel scheduling overhead. A chunk is a schedule, not a
/// type: the engine slices a `Table` or pulls `CsvChunkReader` chunks and
/// merges per-chunk partials in chunk order (DESIGN.md §14).
inline constexpr size_t kDefaultChunkRows = 65536;

/// A row set over a chunked row range: one bitmap per chunk, combined with
/// the same fused AND/popcount kernels as the contiguous `Bitmap` —
/// per-chunk counts simply sum, so chunk-spanning kernels return exactly
/// the numbers the whole-table kernels would.
class ChunkedBitmap {
 public:
  ChunkedBitmap() = default;

  /// Adopts per-chunk bitmaps (sized to their chunks).
  explicit ChunkedBitmap(std::vector<Bitmap> chunks);

  /// All-zero bitmap laid out over the given chunk sizes.
  static ChunkedBitmap AllZero(std::span<const size_t> chunk_sizes);

  size_t num_chunks() const { return chunks_.size(); }
  const Bitmap& chunk(size_t i) const { return chunks_[i]; }
  Bitmap* mutable_chunk(size_t i) { return &chunks_[i]; }

  /// Total bits / total set bits across all chunks.
  size_t size() const;
  size_t Count() const;

  /// Writes a & b into *out chunk by chunk and returns the total
  /// popcount — the chunk-spanning analogue of Bitmap::AndInto. The
  /// operands must have identical chunk layouts (programming error
  /// otherwise, matching the Bitmap kernel contract).
  static size_t AndInto(const ChunkedBitmap& a, const ChunkedBitmap& b,
                        ChunkedBitmap* out);

  /// Fused |a & b| without materializing the intersection.
  static size_t AndCount(const ChunkedBitmap& a, const ChunkedBitmap& b);

  bool operator==(const ChunkedBitmap& other) const = default;

 private:
  std::vector<Bitmap> chunks_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_CHUNKED_H_
