// Fixture for module-cycle: metrics includes legal here, and
// legal/verdict.h includes metrics, so the module graph has a cycle
// although no file-level include cycle exists.
#ifndef FAIRLAW_METRICS_RATES_H_
#define FAIRLAW_METRICS_RATES_H_

#include "legal/rule.h"

namespace fairlaw::metrics {

struct Rates {
  legal::Rule rule;
};

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_RATES_H_
