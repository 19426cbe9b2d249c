// Fixture: entropy. Seeding or timing from ambient sources
// makes two runs of the same audit disagree. Not compiled; scanned by
// the fairlaw_check self-test.
#include <chrono>
#include <cstdlib>
#include <random>

namespace fairlaw_fixture {

unsigned AmbientSeed() {
  std::random_device device;                       // finding
  unsigned seed = device();
  seed ^= static_cast<unsigned>(time(nullptr));    // finding: time( call
  if (std::getenv("FIXTURE_SEED") != nullptr) {    // finding
    seed += 1;
  }
  return seed;
}

long WallClockTag() {
  return std::chrono::system_clock::now().time_since_epoch().count();
  // finding above: system_clock
}

}  // namespace fairlaw_fixture
