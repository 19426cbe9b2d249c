#include "audit/morsel.h"

namespace fairlaw::audit {

ChunkStream::ChunkStream(const data::Table& table, size_t chunk_rows)
    : table_(&table) {
  const size_t rows = table.num_rows();
  step_ = chunk_rows == 0 ? rows : std::min(chunk_rows, rows);
  num_chunks_ = rows == 0 ? 0 : (rows + step_ - 1) / step_;
}

ChunkStream::ChunkStream(data::CsvChunkReader* reader, size_t chunk_rows)
    : reader_(reader) {
  const size_t step = chunk_rows == 0 ? data::kDefaultChunkRows : chunk_rows;
  num_chunks_ = (reader->num_rows() + step - 1) / step;
}

Result<std::shared_ptr<const data::Table>> ChunkStream::Next() {
  if (reader_ != nullptr) {
    FAIRLAW_ASSIGN_OR_RETURN(std::optional<data::Table> chunk,
                             reader_->Next());
    if (!chunk.has_value()) return std::shared_ptr<const data::Table>();
    return std::make_shared<const data::Table>(std::move(*chunk));
  }
  const size_t rows = table_->num_rows();
  if (offset_ >= rows) return std::shared_ptr<const data::Table>();
  if (step_ == rows) {
    // One chunk covers the table: hand out the caller's table through an
    // aliasing pointer that owns nothing.
    offset_ = rows;
    return std::shared_ptr<const data::Table>(
        std::shared_ptr<const data::Table>(), table_);
  }
  const size_t length = std::min(step_, rows - offset_);
  FAIRLAW_ASSIGN_OR_RETURN(data::Table slice, table_->Slice(offset_, length));
  offset_ += length;
  return std::make_shared<const data::Table>(std::move(slice));
}

}  // namespace fairlaw::audit
