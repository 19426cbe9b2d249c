#ifndef FAIRLAW_SERVE_SERVICE_H_
#define FAIRLAW_SERVE_SERVICE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "base/json_writer.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "obs/obs.h"
#include "serve/api.h"
#include "serve/window.h"

namespace fairlaw::serve {

/// The serve daemon's request loop body: one Service per process,
/// handling line-delimited requests against one WindowRing.
///
/// Determinism contract (the serve analogue of the chunked auditor's
/// chunk-size/thread-count invariance, CI-gated the same way): for a
/// fixed event sequence and query sequence, every query response is
/// byte-identical regardless of how the events were batched into
/// ingest requests and of num_threads. Ingest acks legitimately vary
/// with batching (they report per-batch accepted counts) and stats
/// responses carry full telemetry (including per-request counters and
/// latency histograms), so identity comparisons filter to
/// '"op":"query"' lines. The counts a query frame embeds are this
/// service's own fields, never read back from the process-global obs
/// registry, so they do not change with FAIRLAW_OBS or with other
/// services in the process.
class Service {
 public:
  /// `config` must already Validate(). A worker pool is spun up once
  /// when num_threads != 1 and reused across requests.
  explicit Service(const ServeConfig& config);
  /// Neither copied nor moved: the snapshot refers to this ring.
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Handles one request line, returning the response document
  /// (no trailing newline). Never fails: malformed input produces an
  /// error-envelope response.
  std::string HandleLine(std::string_view line);

  const ServeConfig& config() const { return config_; }
  const WindowRing& ring() const { return ring_; }

 private:
  std::string HandleIngest(const std::vector<Event>& events);
  std::string HandleQuery(const QueryRequest& request);
  std::string HandleStats();

  /// Query frame for a recognized query that cannot be answered.
  std::string QueryErrorFrame(const std::string& type,
                              const Status& status) const;
  /// The frame's "obs" object: events accepted, events rejected, and
  /// the live buckets each answered query covered, summed — pure
  /// functions of the request sequence, however many of those buckets
  /// the snapshot actually had to fold.
  void WriteQueryCounts(JsonWriter* json) const;

  ServeConfig config_;
  /// The AuditConfig every window evaluation runs under.
  audit::AuditConfig audit_config_;
  WindowRing ring_;
  /// What queries read: the window of the ring's current version, each
  /// part built on first use and rebuilt once the ring has changed.
  WindowSnapshot snapshot_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  /// DecodeIngestLine's output, kept so its capacity is reused from one
  /// ingest line to the next.
  std::vector<Event> decoded_events_;
  /// serve.latency.<op>_ns, indexed like the op labels in service.cc.
  /// Each is looked up the first time a request of that op finishes, so
  /// the stats export lists only ops that occurred, and then kept:
  /// registry pointers live for the whole process. The fixed-name
  /// probes are function-local statics at their one use.
  std::array<obs::Histogram*, 4> latency_probes_{};
  uint64_t events_ingested_ = 0;
  uint64_t events_rejected_ = 0;
  uint64_t window_merges_ = 0;
};

}  // namespace fairlaw::serve

#endif  // FAIRLAW_SERVE_SERVICE_H_
