// Fixture: the violations of ../obs-read-in-output/, each suppressed by
// the `detcheck: allow-obs-read-in-output` escape, so a scan of this
// tree must report ZERO findings.
#include <cstdint>
#include <string>

#include "obs/obs.h"

namespace fairlaw_fixture {

std::string IngestedField() {
  // detcheck: allow-obs-read-in-output (fixture: opt-in profiling field)
  return std::to_string(fairlaw::obs::GetCounter("ingested")->Value());
}

uint64_t LatencyCount() {
  fairlaw::obs::Histogram* latency = fairlaw::obs::GetHistogram("latency");
  return latency->Count();  // detcheck: allow-obs-read-in-output
}

}  // namespace fairlaw_fixture
