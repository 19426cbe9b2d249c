// Deliberate thread-primitive violations for the fairlaw_check self-test:
// a raw std::thread and a wall-clock sleep, both banned outside base/.
#include <chrono>
#include <thread>

namespace fairlaw {

void SpinOffUnmanagedWork() {
  std::thread worker([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  worker.join();
}

}  // namespace fairlaw
