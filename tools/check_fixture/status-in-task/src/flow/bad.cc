#include "flow/api.h"

// Fixture for status-in-task: worker lambdas whose errors never escape.

namespace fairlaw::flow {

void UseStore(Store& store, ThreadPool& pool) {
  // A fallible call inside a worker whose Status never escapes.
  pool.Submit([&store]() {
    store.Save(2);
  });

  // A Status local produced in a task and never read again.
  pool.ParallelFor(4, [&store](size_t task) {
    Status st = Store::Touch();
    store.Save(static_cast<int>(task));
  });

  // The error lands in the task's own slot: fine.
  std::vector<Status> results(4);
  pool.ParallelFor(4, [&store, &results](size_t task) {
    results[task] = store.Save(static_cast<int>(task));
  });
}

}  // namespace fairlaw::flow
