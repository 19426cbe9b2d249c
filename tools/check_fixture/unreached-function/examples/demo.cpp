#include "audit/use.h"

int main() { return fairlaw::audit::UseShared(1.0) > 0.0 ? 0 : 1; }
