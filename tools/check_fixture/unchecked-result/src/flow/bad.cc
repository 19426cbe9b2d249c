#include "flow/api.h"

// Fixture for unchecked-result: Result values dereferenced with no ok()
// check that dominates the access.

namespace fairlaw::flow {

int UseStore(Store& store) {
  // Dereferencing a Result local with no ok() check in scope.
  Result<int> loaded = store.Load();
  int value = *loaded;

  // ValueOrDie without a dominating check; the earlier check of a
  // DIFFERENT local must not count for this one.
  Result<Store> reopened = OpenStore("path");
  value += reopened.ValueOrDie().Load().ok() ? 1 : 0;

  // Dereferencing the temporary of a fallible call in the same
  // expression: no ok() check is possible before the Result dies.
  value += store.Load().ValueOrDie();

  // An ok() check buried in a sibling scope does not dominate the
  // access that follows it.
  Result<int> sibling = store.Load();
  {
    if (sibling.ok()) value += 1;
  }
  value += *sibling;

  // Checked first: fine.
  Result<int> checked = store.Load();
  if (checked.ok()) value += *checked;
  return value;
}

}  // namespace fairlaw::flow
