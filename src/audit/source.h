#ifndef FAIRLAW_AUDIT_SOURCE_H_
#define FAIRLAW_AUDIT_SOURCE_H_

#include <string>
#include <variant>

#include "audit/auditor.h"
#include "audit/windowed.h"
#include "base/result.h"
#include "data/csv.h"
#include "data/table.h"

namespace fairlaw::audit {

/// Where an audit's rows come from. One value type closes over the three
/// ingestion shapes the engine supports, so every caller — batch tool,
/// tests, the serve daemon's windows — invokes the same
/// `Auditor::Run(source, config)` and gets the same determinism
/// contract: output is byte-identical for every chunk size, thread
/// count, and ingestion path that delivers the same rows in the same
/// order.
///
/// Table and window sources borrow their referent (the caller keeps it
/// alive across Run); the CSV source owns its path and options. A table
/// is read in place: config.chunk_rows schedules row slices of it, and
/// with chunk_rows == 0 the table itself is the one chunk.
class AuditSource {
 public:
  static AuditSource FromTable(const data::Table& table) {
    return AuditSource(&table);
  }
  static AuditSource FromCsv(std::string path,
                             data::CsvOptions options = data::CsvOptions{}) {
    return AuditSource(CsvSpec{std::move(path), std::move(options)});
  }
  /// A merged serve window: exact tallies plus per-group sketches in
  /// place of rows (audit/windowed.h). Runs the windowed evaluator —
  /// calibration skipped, drift approximate.
  static AuditSource FromWindow(const WindowedPartial& window) {
    return AuditSource(&window);
  }

  struct CsvSpec {
    std::string path;
    data::CsvOptions options;
  };

  const std::variant<const data::Table*, CsvSpec, const WindowedPartial*>&
  value() const {
    return value_;
  }

 private:
  template <typename T>
  explicit AuditSource(T value) : value_(std::move(value)) {}

  std::variant<const data::Table*, CsvSpec, const WindowedPartial*> value_;
};

/// The one audit entry point. Validates `config`, dispatches on the
/// source shape, and runs the morsel-driven engine (tables, CSV
/// streams) or the windowed evaluator (serve windows).
class Auditor {
 public:
  FAIRLAW_NODISCARD static Result<AuditResult> Run(const AuditSource& source,
                                                   const AuditConfig& config);
};

}  // namespace fairlaw::audit

#endif  // FAIRLAW_AUDIT_SOURCE_H_
