#ifndef FAIRLAW_AUDIT_MORSEL_H_
#define FAIRLAW_AUDIT_MORSEL_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>

#include "base/result.h"
#include "base/thread_pool.h"
#include "data/csv.h"
#include "data/table.h"

namespace fairlaw::audit {

// The one morsel loop (DESIGN.md §14), internal to audit/. Auditor::Run
// (Table and CSV sources) and AuditSubgroups schedule their per-chunk
// work through it; a chunk is a schedule over the input, never a type.

/// The chunks of one input in row order.
class ChunkStream {
 public:
  /// Row slices of `table`, `chunk_rows` rows each (the last may be
  /// shorter). With chunk_rows == 0, or a value covering the table, the
  /// one chunk is `table` itself, borrowed without a copy. A zero-row
  /// table has no chunks. `table` must outlive every chunk handed out.
  ChunkStream(const data::Table& table, size_t chunk_rows);

  /// The chunks `reader` emits; `chunk_rows` is the reader's chunk size
  /// (0 = kDefaultChunkRows), used only to count them.
  ChunkStream(data::CsvChunkReader* reader, size_t chunk_rows);

  size_t num_chunks() const { return num_chunks_; }

  /// The next chunk, or null after the last one.
  FAIRLAW_NODISCARD Result<std::shared_ptr<const data::Table>> Next();

 private:
  const data::Table* table_ = nullptr;
  data::CsvChunkReader* reader_ = nullptr;
  size_t step_ = 0;    // table rows per chunk
  size_t offset_ = 0;  // first table row of the next chunk
  size_t num_chunks_ = 0;
};

/// Runs `process(chunk)` on every chunk of `chunks` and hands each result
/// to `fold` in chunk order, so whatever `fold` builds is the same for
/// every thread count. With num_threads == 1 or at most one chunk the
/// loop runs inline. Otherwise min(num_threads, chunks) pool workers (0 =
/// one per hardware thread) process chunks while this thread pulls the
/// next ones, with at most 2 x workers chunks in flight. A worker frees
/// its chunk as soon as `process` returns, so a slot waiting for its
/// in-order fold holds only the partial: a stream's live chunks are
/// those being processed or queued for a worker, never the whole window.
/// Returns the first error `chunks` reports; `process` reports its own
/// errors inside its result.
template <typename Process, typename Fold>
FAIRLAW_NODISCARD Status RunMorsels(ChunkStream& chunks, size_t num_threads,
                                    const Process& process,
                                    const Fold& fold) {
  using Partial = std::invoke_result_t<const Process&, const data::Table&>;
  if (num_threads == 1 || chunks.num_chunks() <= 1) {
    for (;;) {
      FAIRLAW_ASSIGN_OR_RETURN(std::shared_ptr<const data::Table> chunk,
                               chunks.Next());
      if (chunk == nullptr) return Status::OK();
      fold(process(*chunk));
    }
  }
  // Deque slots are stable across push/pop at the ends, and the pool is
  // declared after the deque so its destructor joins the workers before
  // any slot they might still write goes away.
  struct InFlight {
    std::shared_ptr<const data::Table> chunk;
    Partial partial;
    std::future<void> done;
  };
  std::deque<InFlight> in_flight;
  ThreadPool pool(num_threads == 0
                      ? 0
                      : std::min(num_threads, chunks.num_chunks()));
  const size_t window = 2 * pool.num_threads();
  auto fold_front = [&in_flight, &fold] {
    in_flight.front().done.get();
    fold(std::move(in_flight.front().partial));
    in_flight.pop_front();
  };
  for (;;) {
    FAIRLAW_ASSIGN_OR_RETURN(std::shared_ptr<const data::Table> chunk,
                             chunks.Next());
    if (chunk == nullptr) break;
    if (in_flight.size() >= window) fold_front();
    InFlight& slot = in_flight.emplace_back();
    slot.chunk = std::move(chunk);
    slot.done = pool.Submit([&slot, &process] {
      slot.partial = process(*slot.chunk);
      slot.chunk.reset();
    });
  }
  while (!in_flight.empty()) fold_front();
  return Status::OK();
}

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_MORSEL_H_
