#ifndef FAIRLAW_DATA_SCHEMA_H_
#define FAIRLAW_DATA_SCHEMA_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace fairlaw::data {

/// Physical type of a column.
enum class DataType {
  kDouble,
  kInt64,
  kString,
  kBool,
};

/// Canonical lowercase name of a data type ("double", "int64", ...).
std::string_view DataTypeToString(DataType type);

/// A named, typed column descriptor.
struct Field {
  std::string name;
  DataType type;

  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

/// Ordered collection of uniquely named fields.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema; fails if two fields share a name.
  FAIRLAW_NODISCARD static Result<Schema> Make(std::vector<Field> fields);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field named `name`, or NotFound. Takes a string_view
  /// so lookups with literals or substrings do not materialize a
  /// temporary std::string.
  FAIRLAW_NODISCARD Result<size_t> FieldIndex(std::string_view name) const;

  /// True if a field named `name` exists.
  bool HasField(std::string_view name) const;

  /// Returns a new schema with `field` appended; fails on duplicate name.
  FAIRLAW_NODISCARD Result<Schema> AddField(Field field) const;

  /// Renders "name:type, name:type, ...".
  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  std::vector<Field> fields_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_SCHEMA_H_
