#include <gtest/gtest.h>

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

TEST(SchemaTest, AddRemoveField) {
  Schema schema = Schema::Make({{"a", DataType::kDouble}}).ValueOrDie();
  Schema extended =
      schema.AddField({"b", DataType::kBool}).ValueOrDie();
  EXPECT_EQ(extended.num_fields(), 2u);
  EXPECT_FALSE(schema.HasField("b"));  // original untouched
  Schema removed = extended.RemoveField("a").ValueOrDie();
  EXPECT_EQ(removed.num_fields(), 1u);
  EXPECT_TRUE(removed.HasField("b"));
  EXPECT_FALSE(extended.AddField({"a", DataType::kInt64}).ok());
  EXPECT_FALSE(extended.RemoveField("zzz").ok());
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

TEST(ColumnTest, Factories) {
  Column doubles = Column::FromDoubles({1.0, 2.0});
  Column ints = Column::FromInt64s({1, 2, 3});
  Column strings = Column::FromStrings({"x"});
  Column bools = Column::FromBools({true, false});
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
  EXPECT_EQ(Column::FromBools({true, false}).ToDoubles().ValueOrDie(),
            (std::vector<double>{1.0, 0.0}));
  EXPECT_FALSE(Column::FromStrings({"x"}).ToDoubles().ok());
}

TEST(ColumnTest, TakePreservesNulls) {
  Column column(DataType::kInt64);
  column.AppendInt64(10);
  column.AppendNull();
  column.AppendInt64(30);
  std::vector<size_t> indices = {2, 1};
  Column taken = column.Take(indices).ValueOrDie();
  EXPECT_EQ(taken.GetInt64(0).ValueOrDie(), 30);
  EXPECT_FALSE(taken.IsValid(1));
  std::vector<size_t> bad = {9};
  EXPECT_TRUE(column.Take(bad).status().IsOutOfRange());
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

TEST(TableTest, AddRemoveReplaceColumn) {
  Table table = MakeTestTable();
  Table extended =
      table.AddColumn("age", Column::FromInt64s({30, 40, 50, 60}))
          .ValueOrDie();
  EXPECT_EQ(extended.num_columns(), 4u);
  EXPECT_EQ(table.num_columns(), 3u);  // original immutable
  EXPECT_FALSE(table.AddColumn("age", Column::FromInt64s({1})).ok());
  EXPECT_FALSE(table.AddColumn("score", Column::FromInt64s({1, 2, 3, 4}))
                   .ok());  // duplicate

  Table removed = extended.RemoveColumn("age").ValueOrDie();
  EXPECT_EQ(removed.num_columns(), 3u);

  Table replaced =
      table.ReplaceColumn("hired", Column::FromBools({true, false, true,
                                                      false}))
          .ValueOrDie();
  EXPECT_EQ(replaced.GetColumn("hired").ValueOrDie()->type(),
            DataType::kBool);
}

TEST(TableTest, TakeFilterSlice) {
  Table table = MakeTestTable();
  std::vector<size_t> indices = {3, 0};
  Table taken = table.Take(indices).ValueOrDie();
  EXPECT_EQ(taken.num_rows(), 2u);
  EXPECT_EQ(taken.GetColumn("name").ValueOrDie()->GetString(0).ValueOrDie(),
            "dan");

  const Column* score = table.GetColumn("score").ValueOrDie();
  Table filtered = table.Filter([&](size_t row) {
                          return score->GetDouble(row).ValueOrDie() > 2.0;
                        })
                       .ValueOrDie();
  EXPECT_EQ(filtered.num_rows(), 2u);

  Table sliced = table.Slice(1, 2).ValueOrDie();
  EXPECT_EQ(sliced.num_rows(), 2u);
  EXPECT_EQ(sliced.GetColumn("name").ValueOrDie()->GetString(0).ValueOrDie(),
            "bob");
  EXPECT_TRUE(table.Slice(3, 5).status().IsOutOfRange());
}

TEST(TableTest, RowsWhereEquals) {
  Table table = MakeTestTable();
  std::vector<size_t> rows =
      table.RowsWhereEquals("name", "cat").ValueOrDie();
  EXPECT_EQ(rows, (std::vector<size_t>{2}));
  EXPECT_FALSE(table.RowsWhereEquals("score", "3").ok());  // not string
}

TEST(TableTest, PreviewRendersHeaderAndRows) {
  Table table = MakeTestTable();
  std::string preview = table.Preview(2);
  EXPECT_NE(preview.find("name"), std::string::npos);
  EXPECT_NE(preview.find("ann"), std::string::npos);
  EXPECT_NE(preview.find("2 more rows"), std::string::npos);
}

TEST(TableBuilderTest, AppendRowsAndFinish) {
  Schema schema = Schema::Make({{"x", DataType::kDouble},
                                {"label", DataType::kInt64}})
                      .ValueOrDie();
  TableBuilder builder(schema);
  EXPECT_TRUE(builder.AppendRow({Cell(1.0), Cell(int64_t{1})}).ok());
  EXPECT_TRUE(builder.AppendRow({Cell(2.0), Cell(int64_t{0})}).ok());
  // Arity and type mismatches rejected without corrupting the builder.
  EXPECT_FALSE(builder.AppendRow({Cell(1.0)}).ok());
  EXPECT_FALSE(builder.AppendRow({Cell(int64_t{1}), Cell(int64_t{1})}).ok());
  Table table = builder.Finish().ValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);
}

}  // namespace
}  // namespace fairlaw::data
