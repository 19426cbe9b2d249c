#ifndef FAIRLAW_STATS_DEAD_H_
#define FAIRLAW_STATS_DEAD_H_

namespace fairlaw::stats {

// Only its own test includes this header, and tests are not roots:
// flagged.
int Dead();

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_DEAD_H_
