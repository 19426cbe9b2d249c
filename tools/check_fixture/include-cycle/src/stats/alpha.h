// Fixture for include-cycle: alpha and beta include each other.
#ifndef FAIRLAW_STATS_ALPHA_H_
#define FAIRLAW_STATS_ALPHA_H_

#include "stats/beta.h"

namespace fairlaw::stats {

struct Alpha {
  Beta* beta = nullptr;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_ALPHA_H_
