// Fixture for banned-function: printing is the product of a CLI tool,
// so printf outside src/ is not a finding.
#include <cstdio>

int main() {
  std::printf("report\n");
  return 0;
}
