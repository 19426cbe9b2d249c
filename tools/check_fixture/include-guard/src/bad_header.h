#ifndef WRONG_GUARD_H
#define WRONG_GUARD_H

// Fixture for include-guard: the guard must be derived from the path
// (FAIRLAW_BAD_HEADER_H_). good_header.h next to it is correct.

inline int Answer() { return 42; }

#endif  // WRONG_GUARD_H
