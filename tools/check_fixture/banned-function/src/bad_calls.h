#ifndef FAIRLAW_BAD_CALLS_H_
#define FAIRLAW_BAD_CALLS_H_

// Fixture for banned-function: unchecked parsing, ambient randomness,
// and (in library code) printing to stdout.

inline int BadParse(const char* text) {
  return atoi(text);
}

inline void BadSeed() {
  srand(42);
  (void)rand();
}

inline void BadPrint(const char* text) { printf("%s\n", text); }

#endif  // FAIRLAW_BAD_CALLS_H_
