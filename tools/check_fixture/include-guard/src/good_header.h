#ifndef FAIRLAW_GOOD_HEADER_H_
#define FAIRLAW_GOOD_HEADER_H_

// Fixture for include-guard: the canonical guard, so no finding.

inline int Question() { return 6 * 7; }

#endif  // FAIRLAW_GOOD_HEADER_H_
