#ifndef FAIRLAW_DATA_TABLE_H_
#define FAIRLAW_DATA_TABLE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "data/column.h"  // IWYU pragma: export
#include "data/schema.h"  // IWYU pragma: export

namespace fairlaw::data {

/// In-memory columnar table: a schema plus equally sized columns.
///
/// Tables are value types (copyable); audits and mitigations never mutate
/// a caller's table in place — transformations return new tables so an
/// audit trail of "data before repair / after repair" is always available.
class Table {
 public:
  /// Creates an empty table with no columns.
  Table() = default;

  /// Builds a table from a schema and matching columns (same count and
  /// per-column type; all columns the same length).
  FAIRLAW_NODISCARD static Result<Table> Make(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t num_columns() const { return columns_.size(); }

  /// Column access by index / name. The name lookup takes a string_view
  /// so call sites with literals or substrings do not materialize a
  /// temporary std::string.
  const Column& column(size_t i) const { return columns_[i]; }
  FAIRLAW_NODISCARD Result<const Column*> GetColumn(std::string_view name) const;

  /// Returns a new table with `column` appended under `name`. The column
  /// length must equal num_rows() (any length is accepted when the table
  /// has no columns yet).
  FAIRLAW_NODISCARD Result<Table> AddColumn(const std::string& name, Column column) const;

  /// Renders the first `max_rows` rows as an aligned text preview.
  std::string Preview(size_t max_rows = 10) const;

 private:
  Table(Schema schema, std::vector<Column> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {}

  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_TABLE_H_
