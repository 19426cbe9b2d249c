#include "data/group_index.h"

#include <utility>

namespace fairlaw::data {

Result<GroupIndex> GroupIndex::Build(
    const Table& table, const std::vector<std::string>& attribute_columns) {
  if (attribute_columns.empty()) {
    return Status::Invalid("GroupIndex::Build: no attribute columns");
  }
  GroupIndex index;
  index.num_rows_ = table.num_rows();
  index.attributes_.reserve(attribute_columns.size());
  for (const std::string& name : attribute_columns) {
    FAIRLAW_ASSIGN_OR_RETURN(const Column* column, table.GetColumn(name));
    const ColumnKeys keys = ExtractKeys(*column);
    AttributeIndex attribute{
        name, stats::FirstSeenMap<Bitmap>(Bitmap(index.num_rows_))};
    // Keys arrive distinct and in first-seen order, so slot k is code k.
    for (const std::string& key : keys.keys) attribute.values.KeyIndex(key);
    for (size_t row = 0; row < keys.codes.size(); ++row) {
      attribute.values.mutable_slot(keys.codes[row])->Set(row);
    }
    index.attributes_.push_back(std::move(attribute));
  }
  return index;
}

Result<const AttributeIndex*> GroupIndex::Attribute(
    const std::string& name) const {
  for (const AttributeIndex& attribute : attributes_) {
    if (attribute.name == name) return &attribute;
  }
  return Status::NotFound("GroupIndex has no attribute '" + name + "'");
}

}  // namespace fairlaw::data
