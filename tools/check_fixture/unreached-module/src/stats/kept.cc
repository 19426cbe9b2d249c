#include "stats/kept.h"

#include "base/bytes.h"

namespace fairlaw::stats {

int Kept() { return base::kBytes; }

}  // namespace fairlaw::stats
