#ifndef FAIRLAW_AUDIT_USE_H_
#define FAIRLAW_AUDIT_USE_H_

namespace fairlaw::audit {

// Called from examples/demo.cpp: silent.
double UseShared(double x);

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_USE_H_
