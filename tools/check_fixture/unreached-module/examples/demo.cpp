// The one root of this tree: it reaches stats/kept.h directly.
#include "stats/kept.h"

int main() { return fairlaw::stats::Kept(); }
