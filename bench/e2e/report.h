#ifndef FAIRLAW_BENCH_E2E_REPORT_H_
#define FAIRLAW_BENCH_E2E_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"

/// Metric records, order statistics, the result line the benchmark ends
/// with, the accumulated results file, and the two-set comparison.
namespace fairlaw::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples the value summarizes (stated next to every percentile).
  int64_t samples = 0;
};

/// Everything one workload invocation measured and checked.
struct WorkloadReport {
  std::string workload;
  uint64_t seed = 0;
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed operation or check (the first few are printed).
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  /// Records one attempted operation; `ok` false counts it failed.
  void Count(bool ok, const std::string& what);
  /// Records a failed operation carrying a Status.
  void Fail(const std::string& what, const Status& status);
  double error_frac() const;
};

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
inline uint64_t SecondsToNs(double seconds) {
  return static_cast<uint64_t>((seconds > 0.0 ? seconds : 0.0) * 1e9);
}
/// num / den, or 0 when den is not positive (a metric with no samples).
inline double SafeDiv(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Median of `values` (mean of the middle pair for even sizes); 0 when
/// empty.
double Median(std::vector<double> values);
/// Nearest-rank percentile (p in (0,100]); 0 when empty.
double Percentile(std::vector<double> values, double p);
/// First and third quartiles as Python's statistics.quantiles(values,
/// n=4) computes them (the exclusive method); needs two values.
void Quartiles(std::vector<double> values, double* q1, double* q3);
/// (q3 - q1) / median; 0 with fewer than two values.
double RelativeSpread(const std::vector<double>& values);

/// Prints `workload metric value unit` lines, then the failures.
void PrintHuman(const WorkloadReport& report);
/// The last stdout line: {"correct","attempted","failed","metrics"}.
/// With several reports, metric keys are "<workload>/<metric>".
std::string ResultLine(const std::vector<WorkloadReport>& reports);

/// Appends the reports to DIR/results.json, an object holding one
/// "invocations" array that every run extends.
FAIRLAW_NODISCARD Status AppendResults(
    const std::string& dir, const std::vector<WorkloadReport>& reports);

/// `fairlaw_bench compare`: per workload and metric, the medians and
/// spreads of the two result files and whether B stays within the
/// benchmark's bound of A. Bounds and directions come from
/// BENCHMARK.json. Returns false when any pairing regressed, is missing
/// from B, or failed more operations.
FAIRLAW_NODISCARD Result<bool> Compare(const std::string& a_path,
                                       const std::string& b_path,
                                       const std::string& benchmark_path);

}  // namespace fairlaw::bench

#endif  // FAIRLAW_BENCH_E2E_REPORT_H_
