#include <cstdio>

int main() {
  std::printf("Ghost is not timed here\n");
  return 0;
}
