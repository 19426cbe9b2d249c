#include "data/schema.h"

#include <unordered_set>

namespace fairlaw::data {

std::string_view DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kDouble:
      return "double";
    case DataType::kInt64:
      return "int64";
    case DataType::kString:
      return "string";
    case DataType::kBool:
      return "bool";
  }
  return "unknown";
}

Result<Schema> Schema::Make(std::vector<Field> fields) {
  std::unordered_set<std::string> seen;
  for (const Field& field : fields) {
    if (field.name.empty()) {
      return Status::Invalid("Schema: field name must be non-empty");
    }
    if (!seen.insert(field.name).second) {
      return Status::Invalid("Schema: duplicate field name '" + field.name +
                             "'");
    }
  }
  return Schema(std::move(fields));
}

Result<size_t> Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound("Schema: no field named '" + std::string(name) +
                          "'");
}

bool Schema::HasField(std::string_view name) const {
  return FieldIndex(name).ok();
}

Result<Schema> Schema::AddField(Field field) const {
  std::vector<Field> fields = fields_;
  fields.push_back(std::move(field));
  return Make(std::move(fields));
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += DataTypeToString(fields_[i].type);
  }
  return out;
}

}  // namespace fairlaw::data
