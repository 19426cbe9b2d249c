#ifndef FAIRLAW_STATS_KEPT_H_
#define FAIRLAW_STATS_KEPT_H_

namespace fairlaw::stats {

// Reached from examples/demo.cpp: silent.
int Kept();

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_KEPT_H_
