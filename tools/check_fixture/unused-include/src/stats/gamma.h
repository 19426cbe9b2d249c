#ifndef FAIRLAW_STATS_GAMMA_H_
#define FAIRLAW_STATS_GAMMA_H_

namespace fairlaw::stats {

struct Gamma {
  int value = 0;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_GAMMA_H_
