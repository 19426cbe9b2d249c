#ifndef FAIRLAW_BENCH_E2E_TRACE_H_
#define FAIRLAW_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <string>

#include "bench/e2e/gen.h"
#include "bench/e2e/report.h"
#include "bench/e2e/workloads.h"

/// `fairlaw_bench trace`: the per-layer breakdown of one workload.
///
/// The traced pass calls, in process and in the tools' order, the same
/// public library functions fairlaw_audit and fairlaw_serve call (the
/// serial streaming loop, RunFairnessSuite's sequence, Service's
/// per-line steps), with one span around each call. Each pass must
/// reproduce the product path's output byte for byte. A layer's busy
/// time is its spans' self time: duration minus the time child spans
/// cover. Spans are written as Chrome trace-event JSON.
namespace fairlaw::bench {

WorkloadReport TraceWorkload(const BenchOptions& options, Workload workload,
                             uint64_t seed, const std::string& trace_path);

}  // namespace fairlaw::bench

#endif  // FAIRLAW_BENCH_E2E_TRACE_H_
