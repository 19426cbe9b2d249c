#include "flow/api.h"

// Fixture for discarded-status: each statement below drops a
// Status/Result. The consumed calls at the end are fine.

namespace fairlaw::flow {

Status UseStore(Store& store) {
  // A fallible call as a bare expression statement.
  store.Save(1);

  // A (void) cast without a flowcheck marker is still a discard.
  (void)Store::Touch();

  // A free-function call discarded after an if.
  if (store.Load().ok()) OpenStore("again");

  Status kept = store.Save(2);
  if (!kept.ok()) return kept;
  return Store::Touch();
}

}  // namespace fairlaw::flow
