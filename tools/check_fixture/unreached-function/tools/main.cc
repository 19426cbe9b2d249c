#include "stats/dist.h"

// Ghost would be the inverse, but nothing here calls it.
int main() { return fairlaw::stats::Served(1.0) > 0.0 ? 0 : 1; }
