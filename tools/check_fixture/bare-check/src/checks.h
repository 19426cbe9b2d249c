#ifndef FAIRLAW_CHECKS_H_
#define FAIRLAW_CHECKS_H_

// Fixture for bare-check: a check without a message and one with an
// empty message. The last one is fine.

#define USE_BARE_CHECK(x) FAIRLAW_CHECK(x)

inline void Validate(int rows) {
  FAIRLAW_CHECK_MSG(rows >= 0, "");
  FAIRLAW_CHECK_MSG(rows < 1000000, "row count must stay below 1e6");
}

#endif  // FAIRLAW_CHECKS_H_
