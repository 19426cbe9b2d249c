#include "stats/dist.h"

// Tests are not callers: their calls keep nothing live.
int main() {
  using namespace fairlaw::stats;
  const double sum = Dead(1.0) + Dead(1.0, 2.0) + Ghost(1.0) + Kept(1.0);
  return sum == 3.0 && Sketch::Make(3).Size() == 3 ? 0 : 1;
}
