#ifndef FAIRLAW_AUDIT_MORSEL_H_
#define FAIRLAW_AUDIT_MORSEL_H_

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
// streams a CSV source through it, on the pool MorselPool
// (base/thread_pool.h) grants; an in-memory table is always one chunk
// and never reaches it.

/// Reads every chunk of `reader` (scanned, schema inferred), runs
/// `process(chunk)` on it, and hands each result to `fold` in chunk
/// order, so whatever `fold` builds is the same for every thread count.
/// Without a pool (see MorselPool) the loop runs inline. Otherwise each
/// task on `pool`, which the loop takes over and joins, reads one chunk
/// from its own byte range, processes it and frees it, with at most
/// 2 x workers slots in flight: a queued slot has read nothing yet and
/// one waiting for its in-order fold holds only the partial. Returns
/// the lowest chunk's read error; `process` reports its own errors
/// inside its result.
template <typename Process, typename Fold>
FAIRLAW_NODISCARD Status RunMorsels(const data::CsvChunkReader& reader,
                                    std::unique_ptr<ThreadPool> pool,
                                    const Process& process, const Fold& fold) {
  using Partial = std::invoke_result_t<const Process&, const data::Table&>;
  const size_t num_chunks = reader.num_chunks();
  if (pool == nullptr) {
    for (size_t i = 0; i < num_chunks; ++i) {
      FAIRLAW_ASSIGN_OR_RETURN(data::Table chunk, reader.ReadChunk(i));
      fold(process(chunk));
    }
    return Status::OK();
  }
  // Deque slots are stable across push/pop at the ends, and the pool
  // moves into a local declared after the deque, so on every path out
  // its destructor joins the workers before any slot they might still
  // write goes away.
  struct InFlight {
    Status status;
    Partial partial;
    std::future<void> done;
  };
  std::deque<InFlight> in_flight;
  const std::unique_ptr<ThreadPool> workers = std::move(pool);
  const size_t window = 2 * workers->num_threads();
  Status status;
  auto fold_front = [&in_flight, &fold, &status] {
    InFlight& front = in_flight.front();
    front.done.get();
    if (status.ok()) status = front.status;
    if (status.ok()) fold(std::move(front.partial));
    in_flight.pop_front();
  };
  for (size_t i = 0; i < num_chunks && status.ok(); ++i) {
    if (in_flight.size() >= window) fold_front();
    InFlight& slot = in_flight.emplace_back();
    slot.done = workers->Submit([&slot, &reader, &process, i] {
      Result<data::Table> chunk = reader.ReadChunk(i);
      if (!chunk.ok()) {
        slot.status = chunk.status();
        return;
      }
      slot.partial = process(*chunk);
    });
  }
  while (!in_flight.empty()) fold_front();
  return status;
}

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_MORSEL_H_
