// Fixture for unused-include: nothing from stats/alpha.h is used.
// stats/gamma.h is unused too, but its IWYU keep pragma exempts it.
#ifndef FAIRLAW_DATA_FRAME_H_
#define FAIRLAW_DATA_FRAME_H_

#include "stats/alpha.h"
#include "stats/beta.h"
#include "stats/gamma.h"  // IWYU pragma: keep

namespace fairlaw::data {

struct Frame {
  stats::Beta beta;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_FRAME_H_
