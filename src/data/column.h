#ifndef FAIRLAW_DATA_COLUMN_H_
#define FAIRLAW_DATA_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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

/// std::allocator, except that a value-initialized element is
/// default-initialized instead: resizing a vector of numbers through it
/// leaves the new slots unwritten. The CSV reader sizes a column once on
/// the calling thread and each worker then writes, and so first touches,
/// its own rows.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U, typename... Args>
  void construct(U* at, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(at)) U;
    } else {
      ::new (static_cast<void*>(at)) U(std::forward<Args>(args)...);
    }
  }
};

/// A column's per-slot storage (see DefaultInitAllocator).
template <typename T>
using SlotVector = std::vector<T, DefaultInitAllocator<T>>;

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

  /// Convenience factories from dense (all-valid) values.
  static Column FromDoubles(std::vector<double> values);
  static Column FromInt64s(std::vector<int64_t> values);
  static Column FromStrings(std::vector<std::string> values);

  /// A column's slot storage, filled outside the Append calls: one 0/1
  /// validity byte per slot, and as many values in the vector of the
  /// column's type (the others stay empty). A string column's codes
  /// index `dictionary`, with kNullCode at a null slot. The CSV reader
  /// sizes these once and parses row ranges straight into them, from
  /// several workers at once when the ranges are disjoint.
  struct Slots {
    SlotVector<uint8_t> valid;
    SlotVector<double> doubles;
    SlotVector<int64_t> int64s;
    SlotVector<uint32_t> codes;
    SlotVector<uint8_t> bools;
    stats::FirstSeenMap<std::monostate> dictionary;

    /// `rows` slots of a `type` column, left unwritten: whoever fills
    /// them writes every slot's validity byte and value, a null's too
    /// (0, or kNullCode in a string column).
    Slots(DataType type, size_t rows);
  };

  /// Takes `slots` of a `type` column over as the column; the null count
  /// is the number of zero validity bytes.
  static Column FromSlots(DataType type, Slots slots);

  DataType type() const { return type_; }
  size_t size() const { return valid_.size(); }
  bool empty() const { return valid_.empty(); }

  /// Number of null slots.
  size_t null_count() const { return null_count_; }
  bool IsValid(size_t row) const { return valid_[row] != 0; }

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

  /// Dense double view. Fails unless the column is double-typed with no
  /// nulls.
  FAIRLAW_NODISCARD Result<std::span<const double>> Doubles() const;
  /// Dense int64 view. Fails unless the column is int64-typed with no
  /// nulls.
  FAIRLAW_NODISCARD Result<std::span<const int64_t>> Int64s() const;

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
  SlotVector<uint8_t> valid_;  // 0/1 bytes, one per row slot
  size_t null_count_ = 0;
  SlotVector<double> doubles_;
  SlotVector<int64_t> int64s_;
  SlotVector<uint32_t> codes_;  // string slots: dictionary_ codes
  stats::FirstSeenMap<std::monostate> dictionary_;
  SlotVector<uint8_t> bools_;  // 0/1 bytes
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
