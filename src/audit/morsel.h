#ifndef FAIRLAW_AUDIT_MORSEL_H_
#define FAIRLAW_AUDIT_MORSEL_H_

#include <cstddef>
#include <deque>
#include <future>
#include <optional>
#include <type_traits>
#include <utility>

#include "base/result.h"
#include "base/thread_pool.h"
#include "data/table.h"

namespace fairlaw::audit {

// The one morsel loop (DESIGN.md §14), internal to audit/. Auditor::Run
// streams a CSV source through it, on the pool MorselPool
// (base/thread_pool.h) grants; an in-memory table is always one chunk
// and never reaches it.

/// Reads chunks 0 .. num_chunks - 1 with `read(i)`, a
/// Result<std::optional<data::Table>> (nullopt: a chunk with nothing to
/// process), runs `process(chunk)` on each chunk read, and hands each
/// result to `fold` in chunk order, so whatever `fold` builds is the same
/// for every thread count. Without a pool (see MorselPool) the loop runs
/// inline. Otherwise each task on `pool` reads one chunk from its own
/// byte range, processes it and frees it, with at most 2 x workers slots
/// in flight: a queued slot has read nothing yet and one waiting for its
/// in-order fold holds only the partial. Every chunk is read and
/// processed, past a read error too, so the work done and the obs probes
/// it bumps do not depend on the thread count; the fold stops at the
/// first error, and the lowest chunk's read error is returned. `process`
/// reports its own errors inside its result.
template <typename Read, typename Process, typename Fold>
FAIRLAW_NODISCARD Status RunMorsels(size_t num_chunks, ThreadPool* pool,
                                    const Read& read, const Process& process,
                                    const Fold& fold) {
  using Partial = std::invoke_result_t<const Process&, const data::Table&>;
  struct Morsel {
    Status status;
    std::optional<Partial> partial;
  };
  auto run = [&read, &process](size_t i, Morsel* morsel) {
    Result<std::optional<data::Table>> chunk = read(i);
    if (!chunk.ok()) {
      morsel->status = chunk.status();
    } else if (chunk->has_value()) {
      morsel->partial.emplace(process(**chunk));
    }
  };
  Status status;
  auto fold_morsel = [&status, &fold](Morsel* morsel) {
    if (status.ok()) status = morsel->status;
    if (status.ok() && morsel->partial.has_value()) {
      fold(std::move(*morsel->partial));
    }
  };
  if (pool == nullptr) {
    for (size_t i = 0; i < num_chunks; ++i) {
      Morsel morsel;
      run(i, &morsel);
      fold_morsel(&morsel);
    }
    return status;
  }
  // Deque slots are stable across push/pop at the ends, and `join`,
  // declared after the deque, waits on every path out for the tasks
  // still running before any slot they might write goes away.
  struct InFlight {
    Morsel morsel;
    std::future<void> done;
  };
  std::deque<InFlight> in_flight;
  struct Join {
    std::deque<InFlight>* slots;
    ~Join() {
      for (InFlight& slot : *slots) {
        if (slot.done.valid()) slot.done.wait();
      }
    }
  } join{&in_flight};
  const size_t window = 2 * pool->num_threads();
  auto fold_front = [&in_flight, &fold_morsel] {
    InFlight& front = in_flight.front();
    front.done.get();
    fold_morsel(&front.morsel);
    in_flight.pop_front();
  };
  for (size_t i = 0; i < num_chunks; ++i) {
    if (in_flight.size() >= window) fold_front();
    InFlight& slot = in_flight.emplace_back();
    slot.done = pool->Submit([&slot, &run, i] { run(i, &slot.morsel); });
  }
  while (!in_flight.empty()) fold_front();
  return status;
}

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_MORSEL_H_
