#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "data/bitmap.h"
#include "data/csv.h"
#include "data/group_index.h"
#include "stats/rng.h"

namespace fairlaw::data {
namespace {

using stats::Rng;

TEST(BitmapTest, EmptyBitmap) {
  Bitmap empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_EQ(empty.num_words(), 0u);
  EXPECT_TRUE(empty.ToIndices().empty());
  // Zero-size bitmaps are same-size, so kernels work (and return zero).
  Bitmap other;
  EXPECT_EQ(Bitmap::AndCount(empty, other), 0u);
}

TEST(BitmapTest, ExactMultipleOf64Sizes) {
  for (size_t size : {64u, 128u, 256u}) {
    Bitmap all = Bitmap::FromBits(std::vector<uint8_t>(size, 1));
    EXPECT_EQ(all.size(), size);
    EXPECT_EQ(all.num_words(), size / 64);
    EXPECT_EQ(all.Count(), size);
    // Every word must be fully set: no spurious tail word, no masking.
    for (uint64_t word : all.words()) {
      EXPECT_EQ(word, ~uint64_t{0});
    }
    Bitmap zero(size);
    EXPECT_EQ(zero.Count(), 0u);
    zero.Set(size - 1);
    EXPECT_TRUE(zero.Test(size - 1));
    EXPECT_EQ(zero.Count(), 1u);
  }
}

TEST(BitmapTest, TailWordBitsStayMasked) {
  // 70 bits: one full word plus a 6-bit tail.
  Bitmap all = Bitmap::FromBits(std::vector<uint8_t>(70, 1));
  EXPECT_EQ(all.Count(), 70u);
  ASSERT_EQ(all.num_words(), 2u);
  EXPECT_EQ(all.words()[1], (uint64_t{1} << 6) - 1);

  Bitmap bits(70);
  bits.Set(69);
  bits.Set(0);
  EXPECT_EQ(bits.Count(), 2u);
  EXPECT_EQ(bits.ToIndices(), (std::vector<size_t>{0, 69}));
}

TEST(BitmapTest, MismatchedLengthsAreInvalid) {
  // Row sets over tables of different lengths never compare equal, even
  // when they hold the same rows.
  Bitmap a(64);
  Bitmap b(65);
  a.Set(3);
  b.Set(3);
  EXPECT_EQ(a.ToIndices(), b.ToIndices());
  EXPECT_FALSE(a == b);
}

TEST(BitmapTest, KernelsMatchScalarReferenceOnRandomInputs) {
  Rng rng(17);
  for (size_t trial = 0; trial < 20; ++trial) {
    const size_t size = 1 + static_cast<size_t>(rng.UniformInt(300));
    std::vector<uint8_t> raw_a(size);
    std::vector<uint8_t> raw_b(size);
    for (size_t i = 0; i < size; ++i) {
      raw_a[i] = rng.Bernoulli(0.5);
      raw_b[i] = rng.Bernoulli(0.3);
    }
    Bitmap a = Bitmap::FromBits(raw_a);
    Bitmap b = Bitmap::FromBits(raw_b);

    size_t count_a = 0;
    size_t and_ab = 0;
    std::vector<uint8_t> raw_ab(size);
    for (size_t i = 0; i < size; ++i) {
      count_a += raw_a[i];
      raw_ab[i] = raw_a[i] & raw_b[i];
      and_ab += raw_ab[i];
    }
    EXPECT_EQ(a.Count(), count_a);
    EXPECT_EQ(Bitmap::AndCount(a, b), and_ab);

    Bitmap scratch;
    EXPECT_EQ(Bitmap::AndInto(a, b, &scratch), and_ab);
    EXPECT_EQ(scratch, Bitmap::FromBits(raw_ab));

    // ToIndices returns exactly the set positions, ascending.
    std::vector<size_t> expected_indices;
    for (size_t i = 0; i < size; ++i) {
      if (raw_a[i] != 0) expected_indices.push_back(i);
    }
    EXPECT_EQ(a.ToIndices(), expected_indices);
  }
}

TEST(GroupIndexTest, BuildsDisjointCoveringBitmapsInFirstSeenOrder) {
  Table table = ReadCsvString(
                    "g,pred\n"
                    "b,1\na,0\nb,1\nc,0\na,1\n")
                    .ValueOrDie();
  GroupIndex index = GroupIndex::Build(table, {"g"}).ValueOrDie();
  EXPECT_EQ(index.num_rows(), 5u);
  const AttributeIndex* attribute =
      index.Attribute("g").ValueOrDie();
  // First-seen order, matching ExtractKeys.
  EXPECT_EQ(attribute->values.keys(),
            (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(attribute->values.slot(0).ToIndices(),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(attribute->values.slot(1).ToIndices(),
            (std::vector<size_t>{1, 4}));
  EXPECT_EQ(attribute->values.slot(2).ToIndices(), (std::vector<size_t>{3}));
  EXPECT_EQ(attribute->values.FindKey("c"), 2u);
  EXPECT_EQ(attribute->values.FindKey("zzz"), attribute->values.num_keys());
  EXPECT_FALSE(index.Attribute("missing").ok());
}

// A null slot keys as "null", so it shares one bitmap with a literal
// "null" value, at the position of whichever of the two comes first.
TEST(GroupIndexTest, NullsAndLiteralNullShareOneKey) {
  Column column(DataType::kString);
  column.AppendString("x");
  column.AppendNull();
  column.AppendString("null");
  column.AppendString("y");
  column.AppendNull();
  column.AppendString("x");
  Table table =
      Table::Make(Schema::Make({{"g", DataType::kString}}).ValueOrDie(),
                  {std::move(column)})
          .ValueOrDie();
  GroupIndex index = GroupIndex::Build(table, {"g"}).ValueOrDie();
  const AttributeIndex* attribute = index.Attribute("g").ValueOrDie();
  EXPECT_EQ(attribute->values.keys(),
            (std::vector<std::string>{"x", "null", "y"}));
  EXPECT_EQ(attribute->values.slot(0).ToIndices(),
            (std::vector<size_t>{0, 5}));
  EXPECT_EQ(attribute->values.slot(1).ToIndices(),
            (std::vector<size_t>{1, 2, 4}));
  EXPECT_EQ(attribute->values.slot(2).ToIndices(), (std::vector<size_t>{3}));
}

}  // namespace
}  // namespace fairlaw::data
