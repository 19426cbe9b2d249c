#include "stats/dead.h"

int main() { return fairlaw::stats::Dead() == 9 ? 0 : 1; }
