#ifndef FAIRLAW_STATS_ALPHA_H_
#define FAIRLAW_STATS_ALPHA_H_

namespace fairlaw::stats {

struct Alpha {
  int value = 0;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_ALPHA_H_
