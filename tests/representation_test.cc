#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "audit/representation.h"

namespace fairlaw::audit {
namespace {

using Groups = std::vector<metrics::GroupStats>;

/// The tally an audit makes of a column holding `a` a's, `b` b's and `c`
/// c's: a value that does not occur has no group.
Groups GroupsWithCounts(int64_t a, int64_t b, int64_t c) {
  Groups groups;
  for (const auto& [name, count] :
       {std::pair<const char*, int64_t>{"a", a}, {"b", b}, {"c", c}}) {
    if (count > 0) groups.push_back({.group = name, .count = count});
  }
  return groups;
}

TEST(RepresentationTest, MatchedCompositionPasses) {
  const Groups groups = GroupsWithCounts(500, 300, 200);
  RepresentationReport report =
      AuditRepresentation(groups,
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
  const Groups groups = GroupsWithCounts(600, 350, 50);
  RepresentationReport report =
      AuditRepresentation(groups,
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
  const Groups groups = GroupsWithCounts(500, 500, 0);
  EXPECT_FALSE(AuditRepresentation(groups,
                                   {{"a", 5000.0}, {"b", 5000.0},
                                    {"c", 1.0}})
                   .ok());  // c in reference but not in data
  const Groups with_c = GroupsWithCounts(495, 495, 10);
  RepresentationReport report =
      AuditRepresentation(with_c,
                          {{"a", 4950.0}, {"b", 4950.0}, {"c", 100.0}})
          .ValueOrDie();
  EXPECT_TRUE(report.composition_ok);
}

TEST(RepresentationTest, CategoryMismatchesAreErrors) {
  const Groups groups = GroupsWithCounts(10, 10, 10);
  // Data group c missing from the reference.
  EXPECT_FALSE(
      AuditRepresentation(groups, {{"a", 0.5}, {"b", 0.5}}).ok());
  // Reference group d missing from the data.
  EXPECT_FALSE(AuditRepresentation(groups,
                                   {{"a", 0.25},
                                    {"b", 0.25},
                                    {"c", 0.25},
                                    {"d", 0.25}})
                   .ok());
}

// Groups are reported in the reference's key order, whatever order the
// tally lists them in, and every group of the tally must be listed.
TEST(RepresentationTest, GroupsFollowTheReferenceOrder) {
  const Groups groups = {{.group = "7", .count = 3},
                         {.group = "0", .count = 2},
                         {.group = "10", .count = 2},
                         {.group = "-3", .count = 1}};
  struct Expected {
    std::string group;
    int64_t count;
    double reference_share;
  };
  const std::vector<Expected> expected = {{"-3", 1, 0.125},
                                          {"0", 2, 0.25},
                                          {"10", 2, 0.25},
                                          {"7", 3, 0.375}};
  RepresentationReport report =
      AuditRepresentation(groups,
                          {{"7", 3.0}, {"0", 2.0}, {"10", 2.0}, {"-3", 1.0}})
          .ValueOrDie();
  ASSERT_EQ(report.groups.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const GroupRepresentation& rep = report.groups[i];
    EXPECT_EQ(rep.group, expected[i].group);
    EXPECT_EQ(rep.count, expected[i].count);
    EXPECT_DOUBLE_EQ(rep.data_share,
                     static_cast<double>(expected[i].count) / 8.0);
    EXPECT_DOUBLE_EQ(rep.reference_share, expected[i].reference_share);
  }
  // An unlisted group is an error, with the group named.
  Result<RepresentationReport> unlisted =
      AuditRepresentation(groups, {{"7", 0.5}, {"10", 0.25}, {"-3", 0.25}});
  ASSERT_FALSE(unlisted.ok());
  EXPECT_EQ(unlisted.status().message(),
            "AuditRepresentation: data contains group '0' absent from "
            "the reference");
}

TEST(RepresentationTest, Validation) {
  const Groups groups = GroupsWithCounts(10, 10, 0);
  EXPECT_FALSE(AuditRepresentation(groups, {{"a", 1.0}}).ok());
  EXPECT_FALSE(
      AuditRepresentation(groups, {{"a", -1.0}, {"b", 2.0}}).ok());
  RepresentationAuditOptions options;
  options.under_representation_threshold = 0.0;
  EXPECT_FALSE(AuditRepresentation(groups, {{"a", 0.5}, {"b", 0.5}},
                                   options)
                   .ok());
  EXPECT_EQ(AuditRepresentation({}, {{"a", 0.5}, {"b", 0.5}})
                .status()
                .message(),
            "AuditRepresentation: empty table");
}

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

TEST(RepresentationTest, NonFiniteReferenceSharesRejected) {
  const Groups groups = GroupsWithCounts(10, 10, 0);
  for (const double share : kNonFinite) {
    SCOPED_TRACE(share);
    Result<RepresentationReport> report =
        AuditRepresentation(groups, {{"a", share}, {"b", 0.5}});
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsInvalid());
    EXPECT_EQ(report.status().message(),
              "AuditRepresentation: non-finite reference share");
  }
}

}  // namespace
}  // namespace fairlaw::audit
