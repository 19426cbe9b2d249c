// Fixture for transitive-include: this file names stats::Tally, which
// only the transitively included stats/tally.h declares.
#include "audit/frame.h"

namespace fairlaw::audit {

long Count(const Frame& frame) {
  const stats::Tally& tally = frame.tally;
  return tally.count;
}

}  // namespace fairlaw::audit
