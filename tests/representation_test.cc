#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "audit/representation.h"
#include "data/csv.h"

namespace fairlaw::audit {
namespace {

data::Table TableWithShares(int a, int b, int c) {
  std::string csv = "g\n";
  for (int i = 0; i < a; ++i) csv += "a\n";
  for (int i = 0; i < b; ++i) csv += "b\n";
  for (int i = 0; i < c; ++i) csv += "c\n";
  return data::ReadCsvString(csv).ValueOrDie();
}

TEST(RepresentationTest, MatchedCompositionPasses) {
  data::Table table = TableWithShares(500, 300, 200);
  RepresentationReport report =
      AuditRepresentation(table, "g",
                          {{"a", 0.5}, {"b", 0.3}, {"c", 0.2}})
          .ValueOrDie();
  EXPECT_TRUE(report.composition_ok);
  EXPECT_NEAR(report.total_variation, 0.0, 1e-12);
  EXPECT_NEAR(report.hellinger, 0.0, 1e-12);
  EXPECT_GT(report.chi_square_p_value, 0.9);
  for (const GroupRepresentation& rep : report.groups) {
    EXPECT_FALSE(rep.under_represented);
    EXPECT_NEAR(rep.representation_ratio, 1.0, 1e-12);
  }
}

TEST(RepresentationTest, UnderRepresentationFlagged) {
  // Group c should be 20% of the population but is 5% of the data.
  data::Table table = TableWithShares(600, 350, 50);
  RepresentationReport report =
      AuditRepresentation(table, "g",
                          {{"a", 0.5}, {"b", 0.3}, {"c", 0.2}})
          .ValueOrDie();
  EXPECT_FALSE(report.composition_ok);
  EXPECT_GT(report.total_variation, 0.1);
  EXPECT_LT(report.chi_square_p_value, 0.001);
  bool c_flagged = false;
  for (const GroupRepresentation& rep : report.groups) {
    if (rep.group == "c") {
      c_flagged = rep.under_represented;
      EXPECT_NEAR(rep.representation_ratio, 0.25, 1e-9);
    }
  }
  EXPECT_TRUE(c_flagged);
  EXPECT_NE(report.detail.find("c"), std::string::npos);
}

TEST(RepresentationTest, ReferenceSharesNormalized) {
  // Shares given as raw census counts rather than probabilities.
  data::Table table = TableWithShares(500, 500, 0);
  EXPECT_FALSE(AuditRepresentation(table, "g",
                                   {{"a", 5000.0}, {"b", 5000.0},
                                    {"c", 1.0}})
                   .ok());  // c in reference but not in data
  data::Table with_c = TableWithShares(495, 495, 10);
  RepresentationReport report =
      AuditRepresentation(with_c, "g",
                          {{"a", 4950.0}, {"b", 4950.0}, {"c", 100.0}})
          .ValueOrDie();
  EXPECT_TRUE(report.composition_ok);
}

TEST(RepresentationTest, CategoryMismatchesAreErrors) {
  data::Table table = TableWithShares(10, 10, 10);
  // Data group c missing from the reference.
  EXPECT_FALSE(
      AuditRepresentation(table, "g", {{"a", 0.5}, {"b", 0.5}}).ok());
  // Reference group d missing from the data.
  EXPECT_FALSE(AuditRepresentation(table, "g",
                                   {{"a", 0.25},
                                    {"b", 0.25},
                                    {"c", 0.25},
                                    {"d", 0.25}})
                   .ok());
}

// Non-string columns group by their rendered values, and a null cell is
// its own group named "null" that the reference must list like any other.
TEST(RepresentationTest, NonStringColumnsGroupByRenderedValue) {
  data::Table table = data::ReadCsvString(
                          "n,b\n"
                          "7,true\n"
                          ",false\n"
                          "10,\n"
                          "7,true\n"
                          "-3,\n"
                          ",true\n"
                          "7,false\n"
                          "10,true\n")
                          .ValueOrDie();
  ASSERT_EQ(table.GetColumn("n").ValueOrDie()->type(), data::DataType::kInt64);
  ASSERT_EQ(table.GetColumn("b").ValueOrDie()->type(), data::DataType::kBool);

  struct Expected {
    std::string group;
    int64_t count;
    double reference_share;
  };
  auto check = [&](const std::string& column,
                   const std::map<std::string, double>& shares,
                   const std::vector<Expected>& expected) {
    SCOPED_TRACE(column);
    RepresentationReport report =
        AuditRepresentation(table, column, shares).ValueOrDie();
    ASSERT_EQ(report.groups.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      const GroupRepresentation& rep = report.groups[i];
      EXPECT_EQ(rep.group, expected[i].group);
      EXPECT_EQ(rep.count, expected[i].count);
      EXPECT_DOUBLE_EQ(rep.data_share,
                       static_cast<double>(expected[i].count) / 8.0);
      EXPECT_DOUBLE_EQ(rep.reference_share, expected[i].reference_share);
    }
  };
  check("n", {{"7", 3.0}, {"null", 2.0}, {"10", 2.0}, {"-3", 1.0}},
        {{"-3", 1, 0.125}, {"10", 2, 0.25}, {"7", 3, 0.375},
         {"null", 2, 0.25}});
  check("b", {{"true", 0.5}, {"false", 0.25}, {"null", 0.25}},
        {{"false", 2, 0.25}, {"null", 2, 0.25}, {"true", 4, 0.5}});
  // Each rendering must be listed: an unlisted null group is an error.
  EXPECT_FALSE(
      AuditRepresentation(table, "b", {{"true", 0.5}, {"false", 0.5}}).ok());
}

TEST(RepresentationTest, Validation) {
  data::Table table = TableWithShares(10, 10, 0);
  EXPECT_FALSE(AuditRepresentation(table, "g", {{"a", 1.0}}).ok());
  EXPECT_FALSE(
      AuditRepresentation(table, "g", {{"a", -1.0}, {"b", 2.0}}).ok());
  RepresentationAuditOptions options;
  options.under_representation_threshold = 0.0;
  EXPECT_FALSE(AuditRepresentation(table, "g", {{"a", 0.5}, {"b", 0.5}},
                                   options)
                   .ok());
  EXPECT_FALSE(AuditRepresentation(table, "missing",
                                   {{"a", 0.5}, {"b", 0.5}})
                   .ok());
}

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

TEST(RepresentationTest, NonFiniteReferenceSharesRejected) {
  data::Table table = TableWithShares(10, 10, 0);
  for (const double share : kNonFinite) {
    SCOPED_TRACE(share);
    Result<RepresentationReport> report =
        AuditRepresentation(table, "g", {{"a", share}, {"b", 0.5}});
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsInvalid());
    EXPECT_EQ(report.status().message(),
              "AuditRepresentation: non-finite reference share");
  }
}

}  // namespace
}  // namespace fairlaw::audit
