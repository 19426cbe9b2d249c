#include "flow/api.h"

// Fixture for dcheck-side-effect: work inside debug-only check macros
// vanishes under NDEBUG.

namespace fairlaw::flow {

int UseStore(Store& store) {
  int value = 0;
  // A fallible call inside a debug-only check macro.
  FAIRLAW_DCHECK(Store::Touch().ok(), "touch must succeed");

  // A mutation inside a debug-only check macro.
  FAIRLAW_DCHECK(value++ < 100, "value stays small");

  // A pure comparison: fine.
  FAIRLAW_DCHECK(value < 100, "value stays small");
  return value + (store.Load().ok() ? 1 : 0);
}

}  // namespace fairlaw::flow
