#include "audit/use.h"

#include "stats/dist.h"

namespace fairlaw::audit {

double UseShared(double x) { return stats::Shared(x); }

}  // namespace fairlaw::audit
