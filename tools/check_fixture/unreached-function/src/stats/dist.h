#ifndef FAIRLAW_STATS_DIST_H_
#define FAIRLAW_STATS_DIST_H_

namespace fairlaw::stats {

// Only tests/dist_test.cc calls it: flagged.
double Dead(double x);
double Dead(double x, double y);  // an overload is the same name: one finding

// tools/main.cc names it in a comment and bench/b.cc in a string
// literal; neither is a call: flagged.
double Ghost(double x);

// Called from tools/main.cc: silent.
double Served(double x);

// Called from src/audit/use.cc, another module: silent.
double Shared(double x);

// Called by Served in dist.cc, beyond its own definition: silent.
double Helper(double x);

// deps: allow-unreached-function -- kept on purpose, counted as suppressed.
double Kept(double x);

class Sketch {
 public:
  // A static factory only tests call: flagged.
  static Sketch Make(int n);

  // Non-static members are outside the rule: silent.
  int Size() const;

 private:
  int n_ = 0;
};

}  // namespace fairlaw::stats

#endif  // FAIRLAW_STATS_DIST_H_
