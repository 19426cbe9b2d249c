#ifndef FAIRLAW_AUDIT_FRAME_H_
#define FAIRLAW_AUDIT_FRAME_H_

#include "stats/tally.h"

namespace fairlaw::audit {

struct Frame {
  stats::Tally tally;
};

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_FRAME_H_
