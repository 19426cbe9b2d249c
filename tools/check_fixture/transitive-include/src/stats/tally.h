#ifndef FAIRLAW_STATS_TALLY_H_
#define FAIRLAW_STATS_TALLY_H_

namespace fairlaw::stats {

struct Tally {
  long count = 0;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_TALLY_H_
