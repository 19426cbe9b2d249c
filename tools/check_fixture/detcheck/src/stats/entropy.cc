// Fixture: the violations of ../entropy/, each
// suppressed by the `detcheck: allow-entropy` escape, so a scan of this
// tree must report ZERO findings.
#include <chrono>
#include <cstdlib>
#include <random>

namespace fairlaw_fixture {

unsigned AmbientSeed() {
  std::random_device device;                     // detcheck: allow-entropy
  unsigned seed = device();
  seed ^= static_cast<unsigned>(time(nullptr));  // detcheck: allow-entropy
  // detcheck: allow-entropy (fixture: marker on the line above the call)
  if (std::getenv("FIXTURE_SEED") != nullptr) {
    seed += 1;
  }
  return seed;
}

long WallClockTag() {
  return std::chrono::system_clock::now()  // detcheck: allow-entropy
      .time_since_epoch()
      .count();
}

}  // namespace fairlaw_fixture
