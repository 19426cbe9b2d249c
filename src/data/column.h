#ifndef FAIRLAW_DATA_COLUMN_H_
#define FAIRLAW_DATA_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "base/result.h"
#include "data/schema.h"
#include "stats/mergeable.h"

namespace fairlaw::data {

/// A single cell value (without nullness); the variant alternative must
/// match the column type.
using Cell = std::variant<double, int64_t, std::string, bool>;

/// Renders a cell for CSV output / previews.
std::string CellToString(const Cell& cell);

/// One typed column with a validity mask.
///
/// Storage is dense: every row slot exists in the value vector, and
/// `valid_[i]` says whether the slot holds data or is null. Analytical
/// accessors (mean, group keys, ...) are expected to either require
/// null-free columns or handle nulls explicitly; the audit entry points
/// surface nulls as Status errors rather than silently dropping rows,
/// because silently dropping protected-group rows is itself a bias risk.
///
/// A string column is dictionary-encoded: one uint32_t code per row slot
/// plus a dictionary holding exactly the column's distinct non-null
/// values in first-seen row order (code i is the i-th key). A null slot
/// holds kNullCode, which no dictionary entry reaches. Every operation
/// keeps that invariant, so per-row consumers tally by code and touch
/// each distinct string once (DESIGN.md §14).
class Column {
 public:
  /// The code of a null slot in a string column.
  static constexpr uint32_t kNullCode = std::numeric_limits<uint32_t>::max();

  /// Creates an empty column of the given type.
  explicit Column(DataType type);

  /// Convenience factories from dense (all-valid) values. Bool columns
  /// take and expose 0/1 bytes: std::vector<bool> is banned tree-wide
  /// (fairlaw_check hot-path rule) because its proxy references defeat
  /// spans, simd, and sane iteration.
  static Column FromDoubles(std::vector<double> values);
  static Column FromInt64s(std::vector<int64_t> values);
  static Column FromStrings(std::vector<std::string> values);
  static Column FromBools(std::vector<uint8_t> values);

  DataType type() const { return type_; }
  size_t size() const { return valid_.size(); }
  bool empty() const { return valid_.empty(); }

  /// Number of null slots.
  size_t null_count() const { return null_count_; }
  bool IsValid(size_t row) const { return valid_[row] != 0; }

  /// Reserves storage for `rows` slots, so that many appends do not
  /// reallocate.
  void Reserve(size_t rows);

  /// Appends a typed value. The overload must match type(); a mismatch is
  /// a programming error and aborts.
  void AppendDouble(double value);
  void AppendInt64(int64_t value);
  /// Interns `value`: its existing code, or the next one.
  void AppendString(std::string_view value);
  void AppendBool(bool value);
  void AppendNull();

  /// Appends `cell`, which must match type().
  FAIRLAW_NODISCARD Status AppendCell(const Cell& cell);

  /// Typed scalar access; fails on type mismatch, row out of range, or
  /// null slot.
  FAIRLAW_NODISCARD Result<double> GetDouble(size_t row) const;
  FAIRLAW_NODISCARD Result<int64_t> GetInt64(size_t row) const;
  FAIRLAW_NODISCARD Result<std::string> GetString(size_t row) const;
  FAIRLAW_NODISCARD Result<bool> GetBool(size_t row) const;

  /// Cell access (type-erased); fails on out-of-range or null.
  FAIRLAW_NODISCARD Result<Cell> GetCell(size_t row) const;

  /// Dense typed views. Fail unless the column has the right type and no
  /// nulls.
  FAIRLAW_NODISCARD Result<std::span<const double>> Doubles() const;
  FAIRLAW_NODISCARD Result<std::span<const int64_t>> Int64s() const;
  FAIRLAW_NODISCARD Result<std::span<const uint8_t>> Bools() const;

  /// A string column's per-slot codes into dictionary(), kNullCode at a
  /// null slot, and its distinct non-null values in first-seen row
  /// order. Both are empty for other types.
  std::span<const uint32_t> Codes() const { return codes_; }
  const stats::FirstSeenMap<std::monostate>& dictionary() const {
    return dictionary_;
  }

  /// Returns the column converted to double values (int64 and bool are
  /// widened; string fails). Requires no nulls.
  FAIRLAW_NODISCARD Result<std::vector<double>> ToDoubles() const;

  /// Renders the value at `row` ("null" for null slots) for previews.
  std::string ValueToString(size_t row) const;

 private:
  DataType type_;
  std::vector<uint8_t> valid_;  // 0/1 bytes, one per row slot
  size_t null_count_ = 0;
  std::vector<double> doubles_;
  std::vector<int64_t> int64s_;
  std::vector<uint32_t> codes_;  // string slots: dictionary_ codes
  stats::FirstSeenMap<std::monostate> dictionary_;
  std::vector<uint8_t> bools_;  // 0/1 bytes
};

/// A column's rows keyed by their rendered values: keys holds each
/// distinct rendering once in first-seen row order, and codes[row]
/// indexes it. A null slot keys as "null", exactly as ValueToString
/// renders it.
struct ColumnKeys {
  std::vector<uint32_t> codes;
  std::vector<std::string> keys;
};

/// The one key extractor behind every group, stratum and value index.
/// A null-free string column hands over its codes and dictionary as
/// they are; other columns render each row through a FirstSeenMap,
/// which yields the same keys in the same order.
ColumnKeys ExtractKeys(const Column& column);

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_COLUMN_H_
