// Microbenchmarks for the fairlaw_serve daemon: ingest throughput into
// the window ring, query latency over the merged window, and the
// serving contracts (DESIGN.md §15).
//
// Two modes:
//   * with any --benchmark_* flag: the usual google-benchmark suite
//     (ingest cost vs batch size).
//   * otherwise: a JSON harness that (1) measures ingest events/sec and
//     best-of-reps audit/quantiles query latency, each timed query
//     first ingesting one event so it folds the window cold; (2)
//     replays the same event sequence at two batch sizes and two thread
//     counts and verifies the query responses are byte-identical, and
//     that a service answering the query suite twice from its window
//     snapshot answers as a fresh one does; and (3) checks the window's
//     per-group KLL sketches against the exact in-window score arrays —
//     quantile rank error plus sketch-vs-exact KS/W1 distance error
//     within fixed bounds. Writes BENCH_serve.json
//     (gated by tools/check_bench_regression.py). Flags: --out=PATH
//     --events=N --reps=N --threads=N --obs-json=PATH.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "base/json_writer.h"
#include "base/string_util.h"
#include "best_of.h"
#include "obs/obs.h"
#include "serve/api.h"
#include "serve/service.h"
#include "serve/window.h"
#include "stats/distance.h"
#include "stats/kll.h"
#include "stats/rng.h"

namespace {

using fairlaw::bench::BestOfEachNs;
using fairlaw::stats::Rng;
namespace serve = fairlaw::serve;
namespace stats = fairlaw::stats;

// Deliberately different prediction rates and score ranges per group so
// the audit queries have real findings and the two sketches compared by
// the drift leg are genuinely apart.
constexpr const char* kGroups[] = {"alpha", "beta", "gamma"};
constexpr double kPredRate[] = {0.50, 0.35, 0.44};

struct EventRecord {
  int64_t t = 0;
  size_t group = 0;
  double score = 0.0;
};

/// Builds the ingest request lines for a fixed synthetic event sequence.
/// The sequence is a pure function of (n, seed); `batch` only groups
/// consecutive events onto ingest lines — exactly the degree of freedom
/// the identity legs exercise. Scores are six-digit decimal text so
/// every replay parses bit-identical doubles.
std::vector<std::string> BuildIngestLines(size_t n, size_t batch,
                                          std::vector<EventRecord>* records) {
  Rng rng(29);
  std::vector<std::string> lines;
  std::string current;
  size_t in_batch = 0;
  auto flush = [&]() {
    if (in_batch == 0) return;
    lines.push_back("{\"op\":\"ingest\",\"events\":[" + current + "]}");
    current.clear();
    in_batch = 0;
  };
  for (size_t i = 0; i < n; ++i) {
    const size_t g = static_cast<size_t>(rng.UniformInt(3));
    const int pred = rng.Bernoulli(kPredRate[g]) ? 1 : 0;
    const int label = rng.Bernoulli(0.42) ? 1 : 0;
    const uint64_t mil = rng.UniformInt(1000000);
    std::string mil_text = std::to_string(mil);
    mil_text.insert(0, 6 - mil_text.size(), '0');
    if (records != nullptr) {
      records->push_back({static_cast<int64_t>(i), g,
                          static_cast<double>(mil) / 1e6});
    }
    if (in_batch > 0) current += ",";
    current += "{\"t\":" + std::to_string(i) + ",\"group\":\"" + kGroups[g] +
               "\",\"pred\":" + std::to_string(pred) +
               ",\"label\":" + std::to_string(label) + ",\"score\":0." +
               mil_text + "}";
    ++in_batch;
    if (in_batch == batch) flush();
  }
  flush();
  return lines;
}

const std::vector<std::string>& QuerySuite() {
  static const std::vector<std::string> kSuite = {
      R"({"op":"query","type":"audit"})",
      R"({"op":"query","type":"four_fifths"})",
      R"({"op":"query","type":"drift"})",
      R"({"op":"query","type":"quantiles","group":"alpha",)"
      R"("q":[0.25,0.5,0.75]})",
  };
  return kSuite;
}

serve::ServeConfig MakeConfig(size_t num_threads) {
  serve::ServeConfig config;
  config.bucket_width = 1000;
  config.num_buckets = 256;
  config.num_threads = num_threads;
  return config;
}

/// Replays the lines through a fresh daemon (obs reset first — the
/// schedule-invariant counters embedded in query responses count from
/// daemon start) and returns the query-suite responses, the suite
/// answered `passes` times in a row.
std::vector<std::string> ReplayAndQuery(const serve::ServeConfig& config,
                                        const std::vector<std::string>& lines,
                                        size_t passes = 1) {
  fairlaw::obs::ResetAll();
  serve::Service service(config);
  for (const std::string& line : lines) {
    benchmark::DoNotOptimize(service.HandleLine(line));
  }
  std::vector<std::string> responses;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (const std::string& query : QuerySuite()) {
      responses.push_back(service.HandleLine(query));
    }
  }
  return responses;
}

/// A query frame without its trailing "obs" member, whose merge count
/// grows with every query answered before it.
std::string WithoutObs(const std::string& frame) {
  const size_t at = frame.find(",\"obs\":{");
  return at == std::string::npos ? frame : frame.substr(0, at) + "}";
}

// ---------------------------------------------------------------------------
// google-benchmark suite.

void BM_ServeIngestBatch(benchmark::State& state) {
  const std::vector<std::string> lines = BuildIngestLines(
      20000, static_cast<size_t>(state.range(0)), nullptr);
  const serve::ServeConfig config = MakeConfig(1);
  for (auto _ : state) {
    serve::Service service(config);
    for (const std::string& line : lines) {
      benchmark::DoNotOptimize(service.HandleLine(line));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_ServeIngestBatch)->Arg(16)->Arg(256)->Arg(4096);

// ---------------------------------------------------------------------------
// JSON harness (default mode).

struct HarnessConfig {
  std::string out = "BENCH_serve.json";
  std::string obs_json;
  size_t events = 200000;
  size_t reps = 3;
  size_t threads = 4;
};

/// Minimum wall time of the interleaved ingest/query rounds, so the
/// query legs' best-of covers more than a few calls.
constexpr int64_t kMinTimedNs = 2'000'000'000;

/// Bound on the sketch quantile rank error against the exact in-window
/// CDF, and on the sketch-vs-exact KS/W1 distance error. k=200 targets
/// ~1% rank error per sketch; both bounds carry a 2-3x margin.
constexpr double kQuantileRankErrBound = 0.025;
constexpr double kDistanceErrBound = 0.03;

int RunHarness(const HarnessConfig& config) {
  std::vector<EventRecord> records;
  const std::vector<std::string> lines =
      BuildIngestLines(config.events, 256, &records);

  // Query latency over a fully-populated window.
  const serve::ServeConfig serial_config = MakeConfig(1);
  fairlaw::obs::ResetAll();
  serve::Service service(serial_config);
  for (const std::string& line : lines) {
    benchmark::DoNotOptimize(service.HandleLine(line));
  }
  // Sketch-vs-exact agreement on the live window (before the timed
  // query legs add events to it): per-group quantile rank error and
  // KS/W1 distance error against the exact in-window score arrays.
  const fairlaw::audit::WindowedPartial window =
      service.ring().Window(nullptr);
  const int64_t window_start = service.ring().window_start();
  const int64_t bucket_width = serial_config.bucket_width;
  std::vector<std::vector<double>> exact_scores(3);
  for (const EventRecord& record : records) {
    if (record.t / bucket_width >= window_start) {
      exact_scores[record.group].push_back(record.score);
    }
  }
  double quantile_rank_err = 0.0;
  double distance_err = 0.0;
  bool sketch_ok = true;
  for (size_t g = 0; g < 3; ++g) {
    std::vector<double> sorted = exact_scores[g];
    std::sort(sorted.begin(), sorted.end());
    const size_t slot = window.sketches.FindKey(kGroups[g]);
    if (slot >= window.sketches.num_keys() || sorted.empty()) {
      sketch_ok = false;
      continue;
    }
    const stats::KllSketch& sketch = window.sketches.sketch(slot);
    sketch_ok = sketch_ok && sketch.count() == sorted.size();
    for (double q : {0.25, 0.5, 0.75}) {
      const double value = sketch.Quantile(q).ValueOrDie();
      const auto below = static_cast<double>(
          std::upper_bound(sorted.begin(), sorted.end(), value) -
          sorted.begin());
      const double err =
          std::abs(below / static_cast<double>(sorted.size()) - q);
      quantile_rank_err = std::max(quantile_rank_err, err);
    }
  }
  if (sketch_ok) {
    const stats::KllSketch& sk_a =
        window.sketches.sketch(window.sketches.FindKey("alpha"));
    const stats::KllSketch& sk_b =
        window.sketches.sketch(window.sketches.FindKey("beta"));
    const double exact_ks =
        stats::KolmogorovSmirnov(exact_scores[0], exact_scores[1])
            .ValueOrDie();
    const double exact_w1 =
        stats::Wasserstein1Samples(exact_scores[0], exact_scores[1])
            .ValueOrDie();
    const double sketch_ks =
        stats::KolmogorovSmirnovSketch(sk_a, sk_b).ValueOrDie();
    const double sketch_w1 =
        stats::Wasserstein1Sketch(sk_a, sk_b).ValueOrDie();
    distance_err = std::max(std::abs(sketch_ks - exact_ks),
                            std::abs(sketch_w1 - exact_w1));
  }
  const bool sketch_within_tolerance =
      sketch_ok && quantile_rank_err <= kQuantileRankErrBound &&
      distance_err <= kDistanceErrBound;

  // Ingest throughput (a full replay into a fresh daemon) and the two
  // query legs, timed interleaved: the gated ratios divide each query by
  // the per-event ingest time, so all three legs see the same load. A
  // query leg first ingests one event at the watermark, so the window
  // keeps its span but each timed query folds it cold, as the first
  // query after an ingest does.
  const std::string touch =
      R"({"op":"ingest","events":[{"t":)" + std::to_string(config.events - 1) +
      R"(,"group":"alpha","pred":1,"label":1,"score":0.5}]})";
  const std::vector<int64_t> leg_ns = BestOfEachNs(
      config.reps,
      {[&] {
         fairlaw::obs::ResetAll();
         serve::Service fresh(serial_config);
         for (const std::string& line : lines) {
           benchmark::DoNotOptimize(fresh.HandleLine(line));
         }
       },
       [&] {
         benchmark::DoNotOptimize(service.HandleLine(touch));
         benchmark::DoNotOptimize(
             service.HandleLine(R"({"op":"query","type":"audit"})"));
       },
       [&] {
         benchmark::DoNotOptimize(service.HandleLine(touch));
         benchmark::DoNotOptimize(service.HandleLine(
             R"({"op":"query","type":"quantiles","group":"alpha",)"
             R"("q":[0.25,0.5,0.75]})"));
       }},
      kMinTimedNs);
  const int64_t ingest_ns = leg_ns[0];
  const int64_t query_audit_ns = leg_ns[1];
  const int64_t query_quantiles_ns = leg_ns[2];
  const double events_per_sec = static_cast<double>(config.events) /
                                (static_cast<double>(ingest_ns) / 1e9);
  // Within-run cost ratios — the machine-portable numbers the
  // regression gate compares. A query folds the whole window, so its
  // honest unit is "how many amortized ingests does one query cost".
  const double per_event_ingest_ns =
      static_cast<double>(ingest_ns) / static_cast<double>(config.events);
  const double audit_query_cost_ratio =
      static_cast<double>(query_audit_ns) / per_event_ingest_ns;
  const double quantiles_query_cost_ratio =
      static_cast<double>(query_quantiles_ns) / per_event_ingest_ns;

  // Identity legs: same events, different batchings / thread counts.
  const std::vector<std::string> rebatched =
      BuildIngestLines(config.events, 977, nullptr);
  const std::vector<std::string> reference =
      ReplayAndQuery(serial_config, lines);
  const bool batch_identical =
      reference == ReplayAndQuery(serial_config, rebatched);
  const bool thread_identical =
      reference == ReplayAndQuery(MakeConfig(config.threads), rebatched);
  // Snapshot leg: one service answers the suite twice, the second pass
  // wholly from its warm snapshot; frame for frame, but for the merge
  // counts, both passes must be a fresh service's first answers.
  const std::vector<std::string> twice =
      ReplayAndQuery(serial_config, lines, 2);
  bool snapshot_identical = twice.size() == 2 * reference.size();
  for (size_t i = 0; snapshot_identical && i < twice.size(); ++i) {
    snapshot_identical = WithoutObs(twice[i]) ==
                         WithoutObs(reference[i % reference.size()]);
  }

  fairlaw::JsonWriter writer;
  writer.BeginObject();
  writer.Field("bench", std::string("serve_window"));
  writer.Field("events", static_cast<int64_t>(config.events));
  writer.Field("reps", static_cast<int64_t>(config.reps));
  writer.Field("threads", static_cast<int64_t>(config.threads));
  writer.Field("bucket_width", serial_config.bucket_width);
  writer.Field("num_buckets",
               static_cast<int64_t>(serial_config.num_buckets));
  writer.Field("ingest_ns", ingest_ns);
  writer.Field("events_per_sec", events_per_sec);
  writer.Field("query_audit_ns", query_audit_ns);
  writer.Field("query_quantiles_ns", query_quantiles_ns);
  writer.Field("audit_query_cost_ratio", audit_query_cost_ratio);
  writer.Field("quantiles_query_cost_ratio", quantiles_query_cost_ratio);
  writer.Field("quantile_rank_err", quantile_rank_err);
  writer.Field("distance_err", distance_err);
  writer.Field("sketch_within_tolerance", sketch_within_tolerance);
  writer.Field("batch_identical", batch_identical);
  writer.Field("thread_identical", thread_identical);
  writer.Field("snapshot_identical", snapshot_identical);
  writer.EndObject();
  const std::string json = writer.Finish().ValueOrDie();

  std::ofstream out(config.out, std::ios::trunc);
  out << json << "\n";
  if (!out) {
    std::fprintf(stderr, "bench_micro_serve: cannot write %s\n",
                 config.out.c_str());
    return 1;
  }
  if (!config.obs_json.empty()) {
    std::ofstream obs_out(config.obs_json, std::ios::trunc);
    obs_out << fairlaw::obs::ExportJson() << "\n";
    if (!obs_out) {
      std::fprintf(stderr, "bench_micro_serve: cannot write %s\n",
                   config.obs_json.c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  if (!batch_identical || !thread_identical) {
    std::fprintf(stderr,
                 "bench_micro_serve: query responses DIFFER across batch "
                 "sizes or thread counts — daemon determinism bug\n");
    return 1;
  }
  if (!snapshot_identical) {
    std::fprintf(stderr,
                 "bench_micro_serve: answers from the window snapshot "
                 "DIFFER from a fresh service's\n");
    return 1;
  }
  if (!sketch_within_tolerance) {
    std::fprintf(stderr,
                 "bench_micro_serve: window sketches disagree with the "
                 "exact in-window scores (rank err %.4f, distance err "
                 "%.4f)\n",
                 quantile_rank_err, distance_err);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench_mode = false;
  HarnessConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--benchmark", 0) == 0) {
      gbench_mode = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      config.out = std::string(arg.substr(6));
    } else if (arg.rfind("--obs-json=", 0) == 0) {
      config.obs_json = std::string(arg.substr(11));
    } else if (arg.rfind("--events=", 0) == 0) {
      config.events = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(9)).ValueOrDie());
    } else if (arg.rfind("--reps=", 0) == 0) {
      config.reps = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(7)).ValueOrDie());
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.threads = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(10)).ValueOrDie());
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_serve [--benchmark_* flags] "
                   "[--out=PATH] [--obs-json=PATH] [--events=N] [--reps=N] "
                   "[--threads=N]\n");
      return 2;
    }
  }
  if (gbench_mode) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return RunHarness(config);
}
