#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "data/column.h"
#include "data/schema.h"
#include "data/table.h"

namespace fairlaw::data {
namespace {

TEST(SchemaTest, MakeAndLookup) {
  Schema schema = Schema::Make({{"a", DataType::kDouble},
                                {"b", DataType::kString}})
                      .ValueOrDie();
  EXPECT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(schema.FieldIndex("b").ValueOrDie(), 1u);
  EXPECT_TRUE(schema.HasField("a"));
  EXPECT_FALSE(schema.HasField("c"));
  EXPECT_TRUE(schema.FieldIndex("c").status().IsNotFound());
  EXPECT_EQ(schema.ToString(), "a:double, b:string");
}

TEST(SchemaTest, RejectsDuplicatesAndEmptyNames) {
  EXPECT_FALSE(Schema::Make({{"a", DataType::kDouble},
                             {"a", DataType::kInt64}})
                   .ok());
  EXPECT_FALSE(Schema::Make({{"", DataType::kDouble}}).ok());
}

TEST(SchemaTest, AddField) {
  Schema schema = Schema::Make({{"a", DataType::kDouble}}).ValueOrDie();
  Schema extended =
      schema.AddField({"b", DataType::kBool}).ValueOrDie();
  EXPECT_EQ(extended.num_fields(), 2u);
  EXPECT_FALSE(schema.HasField("b"));  // original untouched
  EXPECT_FALSE(extended.AddField({"a", DataType::kInt64}).ok());
}

TEST(ColumnTest, TypedAppendAndGet) {
  Column column(DataType::kDouble);
  column.AppendDouble(1.5);
  column.AppendNull();
  column.AppendDouble(2.5);
  EXPECT_EQ(column.size(), 3u);
  EXPECT_EQ(column.null_count(), 1u);
  EXPECT_DOUBLE_EQ(column.GetDouble(0).ValueOrDie(), 1.5);
  EXPECT_FALSE(column.GetDouble(1).ok());  // null
  EXPECT_TRUE(column.GetDouble(5).status().IsOutOfRange());
  EXPECT_FALSE(column.GetInt64(0).ok());  // type mismatch
}

Column BoolColumn(std::initializer_list<bool> values) {
  Column column(DataType::kBool);
  for (const bool value : values) column.AppendBool(value);
  return column;
}

TEST(ColumnTest, Factories) {
  Column doubles = Column::FromDoubles({1.0, 2.0});
  Column ints = Column::FromInt64s({1, 2, 3});
  Column strings = Column::FromStrings({"x"});
  Column bools = BoolColumn({true, false});
  EXPECT_EQ(doubles.size(), 2u);
  EXPECT_EQ(ints.size(), 3u);
  EXPECT_EQ(strings.GetString(0).ValueOrDie(), "x");
  EXPECT_TRUE(bools.GetBool(0).ValueOrDie());
}

TEST(ColumnTest, DenseViewsRequireNoNulls) {
  Column column = Column::FromDoubles({1.0, 2.0});
  EXPECT_TRUE(column.Doubles().ok());
  column.AppendNull();
  EXPECT_FALSE(column.Doubles().ok());
}

TEST(ColumnTest, ToDoublesWidens) {
  EXPECT_EQ(Column::FromInt64s({3, 4}).ToDoubles().ValueOrDie(),
            (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(BoolColumn({true, false}).ToDoubles().ValueOrDie(),
            (std::vector<double>{1.0, 0.0}));
  EXPECT_FALSE(Column::FromStrings({"x"}).ToDoubles().ok());
}

/// Expects `column`'s string dictionary to hold exactly its distinct
/// non-null values in first-seen row order, each slot's code to name its
/// value, and each null slot to hold kNullCode.
void ExpectFirstSeenDictionary(const Column& column) {
  std::vector<std::string> first_seen;
  ASSERT_EQ(column.Codes().size(), column.size());
  for (size_t row = 0; row < column.size(); ++row) {
    if (!column.IsValid(row)) {
      EXPECT_EQ(column.Codes()[row], Column::kNullCode) << row;
      continue;
    }
    const std::string value = column.GetString(row).ValueOrDie();
    auto it = std::find(first_seen.begin(), first_seen.end(), value);
    EXPECT_EQ(column.Codes()[row],
              static_cast<uint32_t>(it - first_seen.begin()))
        << row;
    if (it == first_seen.end()) first_seen.push_back(value);
  }
  EXPECT_EQ(column.dictionary().keys(), first_seen);
}

TEST(ColumnTest, StringDictionaryHoldsFirstSeenDistinctValues) {
  Column column(DataType::kString);
  for (const char* value : {"b", "", "a", "b", "c", "", "a"}) {
    if (*value == '\0') {
      column.AppendNull();
    } else {
      column.AppendString(value);
    }
  }
  ExpectFirstSeenDictionary(column);
  EXPECT_EQ(column.dictionary().keys(),
            (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(std::vector<uint32_t>(column.Codes().begin(),
                                  column.Codes().end()),
            (std::vector<uint32_t>{0, Column::kNullCode, 1, 0, 2,
                                   Column::kNullCode, 1}));
  EXPECT_EQ(column.null_count(), 2u);
  // Reads see the values, not the codes.
  EXPECT_EQ(column.GetString(3).ValueOrDie(), "b");
  EXPECT_EQ(std::get<std::string>(column.GetCell(4).ValueOrDie()), "c");
  EXPECT_FALSE(column.GetCell(1).ok());
  EXPECT_FALSE(column.GetString(5).ok());
  EXPECT_EQ(column.ValueToString(2), "a");
  EXPECT_EQ(column.ValueToString(5), "null");

  const Column built = Column::FromStrings({"x", "y", "x", "z", "y"});
  ExpectFirstSeenDictionary(built);
  EXPECT_EQ(built.dictionary().keys(),
            (std::vector<std::string>{"x", "y", "z"}));
}

TEST(ColumnTest, KeyExtractorMatchesRenderedValues) {
  Column strings(DataType::kString);
  strings.AppendString("null");
  strings.AppendString("x");
  strings.AppendNull();
  Column ints = Column::FromInt64s({7, -2, 7, 0});
  ints.AppendNull();
  Column bools = BoolColumn({true, false, false});
  Column doubles = Column::FromDoubles({0.5, 1.0 / 3.0, 0.5});
  for (const Column* column : {&strings, &ints, &bools, &doubles}) {
    const ColumnKeys keys = ExtractKeys(*column);
    ASSERT_EQ(keys.codes.size(), column->size());
    std::vector<std::string> first_seen;
    for (size_t row = 0; row < column->size(); ++row) {
      const std::string rendered = column->ValueToString(row);
      if (std::find(first_seen.begin(), first_seen.end(), rendered) ==
          first_seen.end()) {
        first_seen.push_back(rendered);
      }
      EXPECT_EQ(keys.keys[keys.codes[row]], rendered) << row;
    }
    EXPECT_EQ(keys.keys, first_seen);
  }
  EXPECT_EQ(ExtractKeys(strings).keys,
            (std::vector<std::string>{"null", "x"}));
  EXPECT_EQ(ExtractKeys(bools).keys,
            (std::vector<std::string>{"true", "false"}));
}

TEST(ColumnTest, AppendCellTypeChecked) {
  Column column(DataType::kString);
  EXPECT_TRUE(column.AppendCell(Cell(std::string("hi"))).ok());
  EXPECT_FALSE(column.AppendCell(Cell(1.0)).ok());
}

Table MakeTestTable() {
  Schema schema = Schema::Make({{"name", DataType::kString},
                                {"score", DataType::kDouble},
                                {"hired", DataType::kInt64}})
                      .ValueOrDie();
  return Table::Make(schema,
                     {Column::FromStrings({"ann", "bob", "cat", "dan"}),
                      Column::FromDoubles({3.0, 1.0, 4.0, 1.5}),
                      Column::FromInt64s({1, 0, 1, 0})})
      .ValueOrDie();
}

TEST(TableTest, BasicAccess) {
  Table table = MakeTestTable();
  EXPECT_EQ(table.num_rows(), 4u);
  EXPECT_EQ(table.num_columns(), 3u);
  const Column* score = table.GetColumn("score").ValueOrDie();
  EXPECT_DOUBLE_EQ(score->GetDouble(2).ValueOrDie(), 4.0);
  EXPECT_FALSE(table.GetColumn("missing").ok());
}

TEST(TableTest, MakeValidatesShape) {
  Schema schema = Schema::Make({{"a", DataType::kDouble}}).ValueOrDie();
  // Wrong column count.
  EXPECT_FALSE(Table::Make(schema, {}).ok());
  // Wrong type.
  EXPECT_FALSE(Table::Make(schema, {Column::FromInt64s({1})}).ok());
  // Ragged lengths.
  Schema two = Schema::Make({{"a", DataType::kDouble},
                             {"b", DataType::kDouble}})
                   .ValueOrDie();
  EXPECT_FALSE(Table::Make(two, {Column::FromDoubles({1.0}),
                                 Column::FromDoubles({1.0, 2.0})})
                   .ok());
}

TEST(TableTest, AddColumn) {
  Table table = MakeTestTable();
  Table extended =
      table.AddColumn("age", Column::FromInt64s({30, 40, 50, 60}))
          .ValueOrDie();
  EXPECT_EQ(extended.num_columns(), 4u);
  EXPECT_EQ(table.num_columns(), 3u);  // original immutable
  EXPECT_FALSE(table.AddColumn("age", Column::FromInt64s({1})).ok());
  EXPECT_FALSE(table.AddColumn("score", Column::FromInt64s({1, 2, 3, 4}))
                   .ok());  // duplicate
}

TEST(TableTest, PreviewRendersHeaderAndRows) {
  Table table = MakeTestTable();
  std::string preview = table.Preview(2);
  EXPECT_NE(preview.find("name"), std::string::npos);
  EXPECT_NE(preview.find("ann"), std::string::npos);
  EXPECT_NE(preview.find("2 more rows"), std::string::npos);
}

}  // namespace
}  // namespace fairlaw::data
