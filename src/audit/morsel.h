#ifndef FAIRLAW_AUDIT_MORSEL_H_
#define FAIRLAW_AUDIT_MORSEL_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <future>
#include <optional>
#include <type_traits>
#include <utility>

#include "base/result.h"
#include "base/thread_pool.h"
#include "data/csv.h"
#include "data/table.h"

namespace fairlaw::audit {

// The one morsel loop (DESIGN.md §14), internal to audit/. Auditor::Run
// streams a CSV source through it; an in-memory table is always one
// chunk and never reaches it.

/// Runs `process(chunk)` on every chunk `reader` emits and hands each
/// result to `fold` in chunk order, so whatever `fold` builds is the same
/// for every thread count. With num_threads == 1 or at most one chunk the
/// loop runs inline. Otherwise min(num_threads, chunks) pool workers (0 =
/// one per hardware thread) process chunks while this thread reads the
/// next ones, with at most 2 x workers chunks in flight. A worker frees
/// its chunk as soon as `process` returns, so a slot waiting for its
/// in-order fold holds only the partial: a stream's live chunks are
/// those being processed or queued for a worker, never the whole window.
/// Returns the first error `reader` reports; `process` reports its own
/// errors inside its result.
template <typename Process, typename Fold>
FAIRLAW_NODISCARD Status RunMorsels(data::CsvChunkReader& reader,
                                    size_t num_threads,
                                    const Process& process,
                                    const Fold& fold) {
  using Partial = std::invoke_result_t<const Process&, const data::Table&>;
  if (num_threads == 1 || reader.num_chunks() <= 1) {
    for (;;) {
      FAIRLAW_ASSIGN_OR_RETURN(std::optional<data::Table> chunk,
                               reader.Next());
      if (!chunk.has_value()) return Status::OK();
      fold(process(*chunk));
    }
  }
  // Deque slots are stable across push/pop at the ends, and the pool is
  // declared after the deque so its destructor joins the workers before
  // any slot they might still write goes away.
  struct InFlight {
    std::optional<data::Table> chunk;
    Partial partial;
    std::future<void> done;
  };
  std::deque<InFlight> in_flight;
  ThreadPool pool(num_threads == 0
                      ? 0
                      : std::min(num_threads, reader.num_chunks()));
  const size_t window = 2 * pool.num_threads();
  auto fold_front = [&in_flight, &fold] {
    in_flight.front().done.get();
    fold(std::move(in_flight.front().partial));
    in_flight.pop_front();
  };
  for (;;) {
    FAIRLAW_ASSIGN_OR_RETURN(std::optional<data::Table> chunk, reader.Next());
    if (!chunk.has_value()) break;
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
