// Fixture: obs-read-in-output. A response built from process-global
// obs probes changes with FAIRLAW_OBS and with every other user of the
// registry in the process. Not compiled; scanned by the fairlaw_check
// self-test.
#include <cstdint>
#include <string>

#include "obs/obs.h"

namespace fairlaw_fixture {

std::string IngestedField() {
  return std::to_string(
      fairlaw::obs::GetCounter("serve.events_ingested")->Value());  // finding
}

uint64_t LatencyCount() {
  fairlaw::obs::Histogram* latency =
      fairlaw::obs::GetHistogram("serve.latency.query_ns");
  return latency->Count();  // finding: read through a named handle
}

struct Frame {
  fairlaw::obs::Counter* merges = nullptr;
  uint64_t Merges() const { return merges->Value(); }  // finding: member
};

// Not a probe: an unrelated Value() accessor stays quiet.
struct Box {
  int Value() const { return 7; }
};

int Unbox(const Box* box) { return box->Value(); }

}  // namespace fairlaw_fixture
