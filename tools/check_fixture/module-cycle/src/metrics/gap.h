#ifndef FAIRLAW_METRICS_GAP_H_
#define FAIRLAW_METRICS_GAP_H_

namespace fairlaw::metrics {

struct Gap {
  double value = 0.0;
};

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_GAP_H_
