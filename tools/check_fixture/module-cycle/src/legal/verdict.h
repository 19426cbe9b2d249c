// Second half of the module cycle with metrics/rates.h.
#ifndef FAIRLAW_LEGAL_VERDICT_H_
#define FAIRLAW_LEGAL_VERDICT_H_

#include "metrics/gap.h"

namespace fairlaw::legal {

struct Verdict {
  metrics::Gap gap;
};

}  // namespace fairlaw::legal

#endif  // FAIRLAW_LEGAL_VERDICT_H_
