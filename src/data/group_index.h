#ifndef FAIRLAW_DATA_GROUP_INDEX_H_
#define FAIRLAW_DATA_GROUP_INDEX_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "data/bitmap.h"
#include "data/table.h"
#include "stats/mergeable.h"

namespace fairlaw::data {

/// Bitmap partition of one attribute column: every distinct value (in
/// first-seen row order, matching ExtractKeys) with the bitmap of the
/// rows holding it. The bitmaps are disjoint and cover all rows.
struct AttributeIndex {
  std::string name;
  stats::FirstSeenMap<Bitmap> values;  // value -> rows holding it
};

/// Columnar bitmap index over a table: per-attribute-value row bitmaps
/// plus (optionally) packed 0/1 prediction and label bitmaps.
///
/// Built once per table, then every subgroup / metric question becomes
/// word-wise AND + popcount:
///   members of (gender=f & race=c)  = bm(gender=f) & bm(race=c)
///   selected in that subgroup       = popcount(members & predictions)
///   TP in that subgroup             = popcount(members & pred & labels)
/// The audit layers cache one GroupIndex per run so no metric re-derives
/// a partition from string columns.
class GroupIndex {
 public:
  /// Indexes `attribute_columns` of `table` by their ExtractKeys codes
  /// (values compare as rendered strings and nulls render as "null",
  /// exactly as Column::ValueToString renders them).
  FAIRLAW_NODISCARD static Result<GroupIndex> Build(
      const Table& table, const std::vector<std::string>& attribute_columns);

  size_t num_rows() const { return num_rows_; }
  const std::vector<AttributeIndex>& attributes() const { return attributes_; }

  /// The indexed attribute named `name`; NotFound when absent.
  FAIRLAW_NODISCARD Result<const AttributeIndex*> Attribute(const std::string& name) const;

 private:
  size_t num_rows_ = 0;
  std::vector<AttributeIndex> attributes_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_GROUP_INDEX_H_
