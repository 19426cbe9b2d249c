#ifndef FAIRLAW_STATS_BETA_H_
#define FAIRLAW_STATS_BETA_H_

namespace fairlaw::stats {

struct Beta {
  int value = 0;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_BETA_H_
