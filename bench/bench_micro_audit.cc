// Benchmark harness for the morsel-driven audit engine: out-of-core
// streaming throughput, thread scaling, and the flat-peak-RSS contract
// (DESIGN.md §14).
//
// The harness (1) streams generated CSVs of --rows and --big-rows rows
// through AuditSource::FromCsv and records the peak-RSS growth between
// them — the count-metric path buffers O(window * chunk) rows, so a 10x
// bigger file must not grow the peak by more than a bounded slack; (2)
// measures streaming rows/sec and the serial-vs-parallel wall ratio of
// the --rows stream at --threads workers (default: one per hardware
// thread, so the ratio is not oversubscribed); and (3) verifies the
// streamed report is byte-identical across chunk sizes and thread counts
// to the one-chunk audit of the same rows read as a table, and so is
// the audit of that table read whole on a pool; (4) times the serial
// against the pooled whole-table read (`read_thread_scaling`). Writes
// BENCH_audit.json (see README "Benchmark JSON output"). Flags:
// --out=PATH --rows=N --big-rows=N --reps=N --threads=N --obs-json=PATH.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "audit/source.h"
#include "base/json_writer.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "best_of.h"
#include "data/csv.h"
#include "data/table.h"
#include "obs/obs.h"
#include "stats/rng.h"

namespace {

using fairlaw::bench::BestOfEachNs;
using fairlaw::stats::Rng;
namespace audit = fairlaw::audit;
namespace data = fairlaw::data;

// Groups are skewed so per-group tallies differ and a wrong merge order
// would show up in the report.
constexpr const char* kGroups[] = {"alpha", "beta", "gamma", "delta"};
constexpr double kGroupRates[] = {0.35, 0.55, 0.45, 0.65};

/// Streams a synthetic decisions CSV to disk (never holds it in memory):
/// group,pred,label plus, when `with_score`, stratum and score columns
/// for the order-sensitive audit paths.
bool WriteCsv(const std::string& path, size_t rows, bool with_score) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  out << (with_score ? "group,stratum,pred,label,score\n"
                     : "group,pred,label\n");
  Rng rng(17);
  std::string line;
  for (size_t i = 0; i < rows; ++i) {
    const size_t g = static_cast<size_t>(rng.UniformInt(4));
    const int pred = rng.Bernoulli(kGroupRates[g]) ? 1 : 0;
    const int label = rng.Bernoulli(0.5) ? 1 : 0;
    line = kGroups[g];
    if (with_score) {
      line += ",s";
      line += std::to_string(rng.UniformInt(3));
    }
    line += ',';
    line += std::to_string(pred);
    line += ',';
    line += std::to_string(label);
    if (with_score) {
      line += ',';
      line += fairlaw::FormatDouble(rng.Uniform(), 6);
    }
    line += '\n';
    out << line;
  }
  return static_cast<bool>(out);
}

audit::AuditConfig CountConfig() {
  audit::AuditConfig config;
  config.protected_column = "group";
  config.prediction_column = "pred";
  config.label_column = "label";
  return config;
}

audit::AuditConfig FullConfig() {
  audit::AuditConfig config = CountConfig();
  config.score_column = "score";
  config.strata_columns = {"stratum"};
  config.audit_score_distribution = true;
  config.min_stratum_size = 10;
  return config;
}

/// Peak RSS of this process so far, in MB (ru_maxrss is KB on Linux).
double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// JSON harness.

struct HarnessConfig {
  std::string out = "BENCH_audit.json";
  std::string obs_json;
  size_t rows = 1000000;
  size_t big_rows = 10000000;
  size_t reps = 3;
  size_t threads = fairlaw::HardwareThreads();
};

/// Peak-RSS growth allowed between the --rows and --big-rows streaming
/// audits. The streaming window holds a bounded number of 16k-row chunks
/// regardless of file size, so the honest slack is allocator noise plus
/// OS page-cache accounting — not a function of the 10x row growth.
constexpr double kFlatMemorySlackMb = 200.0;

/// Rounds of the interleaved streaming-size legs.
constexpr size_t kStreamRounds = 3;

int RunHarness(const HarnessConfig& config) {
  const std::string small_csv = "bench_audit_small.csv";
  const std::string big_csv = "bench_audit_big.csv";
  const std::string full_csv = "bench_audit_full.csv";
  if (!WriteCsv(small_csv, config.rows, /*with_score=*/false) ||
      !WriteCsv(big_csv, config.big_rows, /*with_score=*/false) ||
      !WriteCsv(full_csv, std::min<size_t>(config.rows, 200000),
                /*with_score=*/true)) {
    std::fprintf(stderr, "bench_micro_audit: cannot write temp CSVs\n");
    return 1;
  }

  // Memory legs first, so nothing the identity legs allocate can mask
  // the streaming engine's own peak. The gate divides the big by the
  // small streaming time, so both legs do the same work per call (the
  // small leg streams the small file big_rows / rows times) and run
  // interleaved, kStreamRounds rounds of one call each.
  const audit::AuditConfig count_config = CountConfig();
  const size_t small_batch =
      std::max<size_t>(1, config.big_rows / config.rows);
  double rss_after_small_mb = 0.0;
  const std::vector<int64_t> stream_ns = BestOfEachNs(
      kStreamRounds,
      {[&] {
         for (size_t b = 0; b < small_batch; ++b) {
           benchmark::DoNotOptimize(
               audit::Auditor::Run(audit::AuditSource::FromCsv(small_csv),
                                   count_config)
                   .ValueOrDie());
         }
         // Before the first big stream runs.
         if (rss_after_small_mb == 0.0) rss_after_small_mb = PeakRssMb();
       },
       [&] {
         benchmark::DoNotOptimize(
             audit::Auditor::Run(audit::AuditSource::FromCsv(big_csv),
                                 count_config)
                 .ValueOrDie());
       }});
  const int64_t small_ns = stream_ns[0] / static_cast<int64_t>(small_batch);
  const int64_t big_ns = stream_ns[1];
  const double rss_after_big_mb = PeakRssMb();
  const double rss_growth_mb = rss_after_big_mb - rss_after_small_mb;
  const bool flat_memory_ok = rss_growth_mb < kFlatMemorySlackMb;

  // Throughput and thread scaling: best-of-reps streaming audits of the
  // small file in 16k-row chunks, serial vs --threads workers, timed
  // interleaved so both legs of the ratio see the same machine load.
  // The serial leg also gives rows/sec. On a single-core host the honest
  // ratio is ~1.0; the regression gate compares against the baseline
  // recorded on the same machine class rather than asserting an
  // absolute speedup.
  audit::AuditConfig parallel_config = count_config;
  parallel_config.num_threads = config.threads;
  const std::vector<int64_t> scaling_ns = BestOfEachNs(
      config.reps,
      {[&] {
         benchmark::DoNotOptimize(
             audit::Auditor::Run(audit::AuditSource::FromCsv(small_csv),
                                 count_config)
                 .ValueOrDie());
       },
       [&] {
         benchmark::DoNotOptimize(
             audit::Auditor::Run(audit::AuditSource::FromCsv(small_csv),
                                 parallel_config)
                 .ValueOrDie());
       }});
  const int64_t serial_ns = scaling_ns[0];
  const int64_t parallel_ns = scaling_ns[1];
  const double rows_per_sec = static_cast<double>(config.rows) /
                              (static_cast<double>(serial_ns) / 1e9);
  const double thread_scaling = static_cast<double>(serial_ns) /
                                static_cast<double>(parallel_ns);

  // Byte-identity: the full-config audit (counts, strata, calibration,
  // score distribution) streamed at every chunk size and thread count
  // must render exactly as the one-chunk audit of the table.
  const data::Table full_table = data::ReadCsvFile(full_csv).ValueOrDie();
  const audit::AuditConfig full_config = FullConfig();
  const std::string reference =
      audit::Auditor::Run(audit::AuditSource::FromTable(full_table),
                          full_config)
          .ValueOrDie().Render();
  bool chunk_identical = true;
  for (size_t chunk_rows : {size_t{1000}, size_t{16384}, size_t{65536}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      audit::AuditConfig variant = full_config;
      variant.chunk_rows = chunk_rows;
      variant.num_threads = threads;
      const std::string render =
          audit::Auditor::Run(audit::AuditSource::FromCsv(full_csv), variant)
              .ValueOrDie().Render();
      chunk_identical = chunk_identical && render == reference;
    }
  }
  audit::AuditConfig streaming_config = FullConfig();
  streaming_config.chunk_rows = 4096;
  streaming_config.num_threads = 2;
  const std::string streamed =
      audit::Auditor::Run(audit::AuditSource::FromCsv(full_csv),
                          streaming_config)
          .ValueOrDie().Render();
  const bool streaming_identical = streamed == reference;

  // The whole-table read on a pool gives the table ReadCsvFile gives.
  bool read_identical = true;
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const data::Table pooled =
        data::ReadCsvFile(full_csv, {}, threads).ValueOrDie();
    const std::string render =
        audit::Auditor::Run(audit::AuditSource::FromTable(pooled),
                            full_config)
            .ValueOrDie().Render();
    read_identical = read_identical && render == reference;
  }

  // Whole-table read scaling: serial vs pooled ReadCsvFile of the same
  // file, timed interleaved.
  const std::vector<int64_t> read_ns = BestOfEachNs(
      config.reps,
      {[&] {
         benchmark::DoNotOptimize(
             data::ReadCsvFile(full_csv).ValueOrDie());
       },
       [&] {
         benchmark::DoNotOptimize(
             data::ReadCsvFile(full_csv, {}, config.threads).ValueOrDie());
       }});
  const double read_thread_scaling =
      static_cast<double>(read_ns[0]) / static_cast<double>(read_ns[1]);

  std::remove(small_csv.c_str());
  std::remove(big_csv.c_str());
  std::remove(full_csv.c_str());

  fairlaw::JsonWriter writer;
  writer.BeginObject();
  writer.Field("bench", std::string("audit_chunked"));
  writer.Field("rows", static_cast<int64_t>(config.rows));
  writer.Field("big_rows", static_cast<int64_t>(config.big_rows));
  writer.Field("reps", static_cast<int64_t>(config.reps));
  writer.Field("threads", static_cast<int64_t>(config.threads));
  writer.Field("chunk_rows", static_cast<int64_t>(data::kDefaultChunkRows));
  writer.Field("stream_small_ns", small_ns);
  writer.Field("stream_big_ns", big_ns);
  writer.Field("rows_per_sec", rows_per_sec);
  writer.Field("peak_rss_after_small_mb", rss_after_small_mb);
  writer.Field("peak_rss_after_big_mb", rss_after_big_mb);
  writer.Field("rss_growth_mb", rss_growth_mb);
  writer.Field("flat_memory_ok", flat_memory_ok);
  writer.Field("serial_ns", serial_ns);
  writer.Field("parallel_ns", parallel_ns);
  writer.Field("thread_scaling", thread_scaling);
  writer.Field("chunk_identical", chunk_identical);
  writer.Field("streaming_identical", streaming_identical);
  writer.Field("read_serial_ns", read_ns[0]);
  writer.Field("read_parallel_ns", read_ns[1]);
  writer.Field("read_thread_scaling", read_thread_scaling);
  writer.Field("read_identical", read_identical);
  writer.EndObject();
  const std::string json = writer.Finish().ValueOrDie();

  std::ofstream out(config.out, std::ios::trunc);
  out << json << "\n";
  if (!out) {
    std::fprintf(stderr, "bench_micro_audit: cannot write %s\n",
                 config.out.c_str());
    return 1;
  }
  if (!config.obs_json.empty()) {
    std::ofstream obs_out(config.obs_json, std::ios::trunc);
    obs_out << fairlaw::obs::ExportJson() << "\n";
    if (!obs_out) {
      std::fprintf(stderr, "bench_micro_audit: cannot write %s\n",
                   config.obs_json.c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  if (!chunk_identical || !streaming_identical || !read_identical) {
    std::fprintf(stderr, "bench_micro_audit: audit output DIFFERS across "
                         "chunk sizes, thread counts or ingestion paths — "
                         "engine bug\n");
    return 1;
  }
  if (!flat_memory_ok) {
    std::fprintf(stderr,
                 "bench_micro_audit: peak RSS grew %.1f MB between the "
                 "%zu-row and %zu-row streaming audits (slack %.0f MB) — "
                 "the out-of-core path is not flat\n",
                 rss_growth_mb, config.rows, config.big_rows,
                 kFlatMemorySlackMb);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      config.out = std::string(arg.substr(6));
    } else if (arg.rfind("--obs-json=", 0) == 0) {
      config.obs_json = std::string(arg.substr(11));
    } else if (arg.rfind("--rows=", 0) == 0) {
      config.rows = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(7)).ValueOrDie());
    } else if (arg.rfind("--big-rows=", 0) == 0) {
      config.big_rows = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(11)).ValueOrDie());
    } else if (arg.rfind("--reps=", 0) == 0) {
      config.reps = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(7)).ValueOrDie());
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.threads = static_cast<size_t>(
          fairlaw::ParseInt64(arg.substr(10)).ValueOrDie());
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_audit [--out=PATH] "
                   "[--obs-json=PATH] [--rows=N] [--big-rows=N] "
                   "[--reps=N] [--threads=N]\n");
      return 2;
    }
  }
  return RunHarness(config);
}
