#include "flow/api.h"

// Escape-hatch fixture: every violation from the flowcheck rule
// fixtures (../discarded-status/ and its siblings), each suppressed by
// its `flowcheck: allow-<rule>` marker on the flagged line or the line
// above. The flowcheck rules must report zero findings on this tree.

namespace fairlaw::flow {

Status UseStore(Store& store, ThreadPool& pool) {
  store.Save(1);  // flowcheck: allow-discarded-status (fixture)

  // flowcheck: allow-discarded-status (deliberate fire-and-forget)
  (void)Store::Touch();

  // flowcheck: allow-discarded-status (probe call, outcome irrelevant)
  if (store.Load().ok()) OpenStore("again");

  Result<int> loaded = store.Load();
  int value = *loaded;  // flowcheck: allow-unchecked-result (fixture)

  Result<Store> reopened = OpenStore("path");
  // flowcheck: allow-unchecked-result (path exists by construction)
  reopened.ValueOrDie().Save(value);

  // flowcheck: allow-unchecked-result (store is pre-validated above)
  value += store.Load().ValueOrDie();

  Result<int> sibling = store.Load();
  {
    if (sibling.ok()) value += 1;
  }
  value += *sibling;  // flowcheck: allow-unchecked-result (fixture)

  pool.Submit([&store]() {
    store.Save(2);  // flowcheck: allow-status-in-task (fixture)
  });

  pool.ParallelFor(4, [&store](size_t task) {
    // flowcheck: allow-status-in-task (fixture)
    Status st = Store::Touch();
    // flowcheck: allow-status-in-task (fixture)
    store.Save(static_cast<int>(task));
  });

  // flowcheck: allow-dcheck-side-effect (fixture)
  FAIRLAW_DCHECK(Store::Touch().ok(), "touch must succeed");

  // flowcheck: allow-dcheck-side-effect (fixture)
  FAIRLAW_DCHECK(value++ < 100, "value stays small");

  return Status::OK();
}

}  // namespace fairlaw::flow
