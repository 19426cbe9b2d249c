#include "data/chunked.h"

#include <utility>

#include "base/check.h"

namespace fairlaw::data {

ChunkedBitmap::ChunkedBitmap(std::vector<Bitmap> chunks)
    : chunks_(std::move(chunks)) {}

ChunkedBitmap ChunkedBitmap::AllZero(std::span<const size_t> chunk_sizes) {
  std::vector<Bitmap> chunks;
  chunks.reserve(chunk_sizes.size());
  for (size_t size : chunk_sizes) chunks.emplace_back(size);
  return ChunkedBitmap(std::move(chunks));
}

size_t ChunkedBitmap::size() const {
  size_t total = 0;
  for (const Bitmap& chunk : chunks_) total += chunk.size();
  return total;
}

size_t ChunkedBitmap::Count() const {
  size_t total = 0;
  for (const Bitmap& chunk : chunks_) total += chunk.Count();
  return total;
}

size_t ChunkedBitmap::AndInto(const ChunkedBitmap& a, const ChunkedBitmap& b,
                              ChunkedBitmap* out) {
  FAIRLAW_DCHECK(a.num_chunks() == b.num_chunks(),
                 "ChunkedBitmap::AndInto: chunk layout mismatch");
  out->chunks_.resize(a.num_chunks());
  size_t count = 0;
  for (size_t i = 0; i < a.chunks_.size(); ++i) {
    count += Bitmap::AndInto(a.chunks_[i], b.chunks_[i], &out->chunks_[i]);
  }
  return count;
}

size_t ChunkedBitmap::AndCount(const ChunkedBitmap& a, const ChunkedBitmap& b) {
  FAIRLAW_DCHECK(a.num_chunks() == b.num_chunks(),
                 "ChunkedBitmap::AndCount: chunk layout mismatch");
  size_t count = 0;
  for (size_t i = 0; i < a.chunks_.size(); ++i) {
    count += Bitmap::AndCount(a.chunks_[i], b.chunks_[i]);
  }
  return count;
}

}  // namespace fairlaw::data
