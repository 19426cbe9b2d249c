#include "stats/dead.h"

#include "stats/kept.h"

namespace fairlaw::stats {

int Dead() { return Kept() + 1; }

}  // namespace fairlaw::stats
