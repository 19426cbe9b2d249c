#include "stats/dist.h"

namespace fairlaw::stats {

double Dead(double x) { return x; }
double Dead(double x, double y) { return x + y; }
double Ghost(double x) { return -x; }
double Served(double x) { return Helper(x) + 1.0; }
double Shared(double x) { return 2.0 * x; }
double Helper(double x) { return x * x; }
double Kept(double x) { return x; }

Sketch Sketch::Make(int n) {
  Sketch sketch;
  sketch.n_ = n;
  return sketch;
}

int Sketch::Size() const { return n_; }

}  // namespace fairlaw::stats
