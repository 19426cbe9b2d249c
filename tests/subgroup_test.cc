#include <gtest/gtest.h>

#include "audit/partials.h"
#include "audit/subgroup.h"
#include "data/bitmap.h"
#include "data/csv.h"
#include "obs/obs.h"
#include "stats/rng.h"
#include "support/subgroup_rowwise.h"

namespace fairlaw::audit {
namespace {

/// Gerrymandered table (§IV-C): marginal rates balanced, the cells
/// (male, non_caucasian) and (female, caucasian) heavily disfavored.
data::Table GerrymanderedTable() {
  std::string csv = "gender,race,pred\n";
  auto add = [&csv](const std::string& g, const std::string& r, int p,
                    int count) {
    for (int i = 0; i < count; ++i) {
      csv += g + "," + r + "," + std::to_string(p) + "\n";
    }
  };
  // Favored cells: 80% selected. Disfavored: 20%. 100 per cell.
  add("male", "caucasian", 1, 80);
  add("male", "caucasian", 0, 20);
  add("male", "non_caucasian", 1, 20);
  add("male", "non_caucasian", 0, 80);
  add("female", "caucasian", 1, 20);
  add("female", "caucasian", 0, 80);
  add("female", "non_caucasian", 1, 80);
  add("female", "non_caucasian", 0, 20);
  return data::ReadCsvString(csv).ValueOrDie();
}

TEST(SubgroupAuditTest, MarginalsPassButDepth2Fails) {
  data::Table table = GerrymanderedTable();
  SubgroupAuditOptions options;
  options.max_depth = 1;
  options.tolerance = 0.05;
  SubgroupAuditResult marginal =
      AuditSubgroups(table, {"gender", "race"}, "pred", options)
          .ValueOrDie();
  EXPECT_FALSE(marginal.any_violation);  // every marginal is exactly 50%

  options.max_depth = 2;
  SubgroupAuditResult deep =
      AuditSubgroups(table, {"gender", "race"}, "pred", options)
          .ValueOrDie();
  EXPECT_TRUE(deep.any_violation);
  auto violations = deep.Violations(0.05);
  EXPECT_EQ(violations.size(), 4u);  // all four depth-2 cells deviate 0.3
  EXPECT_NEAR(violations[0].gap, 0.3, 1e-12);
  EXPECT_EQ(violations[0].subgroup.conditions.size(), 2u);
}

TEST(SubgroupAuditTest, FindingsSortedByGap) {
  data::Table table = GerrymanderedTable();
  SubgroupAuditOptions options;
  options.max_depth = 2;
  SubgroupAuditResult result =
      AuditSubgroups(table, {"gender", "race"}, "pred", options)
          .ValueOrDie();
  for (size_t i = 1; i < result.findings.size(); ++i) {
    EXPECT_GE(result.findings[i - 1].gap, result.findings[i].gap);
  }
}

TEST(SubgroupAuditTest, WeightedGapDiscountsSmallGroups) {
  data::Table table = GerrymanderedTable();
  SubgroupAuditOptions options;
  options.max_depth = 2;
  SubgroupAuditResult result =
      AuditSubgroups(table, {"gender", "race"}, "pred", options)
          .ValueOrDie();
  for (const SubgroupFinding& finding : result.findings) {
    double expected = finding.gap * static_cast<double>(finding.count) /
                      static_cast<double>(table.num_rows());
    EXPECT_NEAR(finding.weighted_gap, expected, 1e-12);
  }
}

TEST(SubgroupAuditTest, MinSupportSkipsSmallCells) {
  data::Table table =
      data::ReadCsvString(
          "g,pred\n"
          "a,1\na,1\na,0\na,0\n"
          "b,1\n")  // group b has one member
          .ValueOrDie();
  SubgroupAuditOptions options;
  options.max_depth = 1;
  options.min_support = 2;
  SubgroupAuditResult result =
      AuditSubgroups(table, {"g"}, "pred", options).ValueOrDie();
  EXPECT_EQ(result.subgroups_skipped_small, 1u);
  EXPECT_EQ(result.findings.size(), 1u);
}

TEST(SubgroupAuditTest, Validation) {
  data::Table table = GerrymanderedTable();
  SubgroupAuditOptions options;
  EXPECT_FALSE(AuditSubgroups(table, {}, "pred", options).ok());
  options.max_depth = 0;
  EXPECT_FALSE(AuditSubgroups(table, {"gender"}, "pred", options).ok());
  options.max_depth = 1;
  EXPECT_FALSE(AuditSubgroups(table, {"gender"}, "race", options).ok());
  EXPECT_FALSE(AuditSubgroups(table, {"gender"}, "missing", options).ok());

  // Validate() mirrors AuditConfig::Validate and is what both audit
  // entry points call first.
  SubgroupAuditOptions bad_tolerance;
  bad_tolerance.tolerance = 1.5;
  EXPECT_FALSE(bad_tolerance.Validate().ok());
  bad_tolerance.tolerance = -0.1;
  EXPECT_FALSE(bad_tolerance.Validate().ok());
  EXPECT_TRUE(SubgroupAuditOptions{}.Validate().ok());
}

// The subgroup index packs the prediction column through BinaryColumn:
// bits land on the 1 rows, and a non-binary or missing column is
// rejected (not truncated) with BinaryColumn's own error.
TEST(SubgroupAuditTest, PredictionColumnPacksAndValidates) {
  data::Table table = data::ReadCsvString(
                          "g,pred,score\n"
                          "a,1,0.25\nb,0,0.5\na,1,0.75\n")
                          .ValueOrDie();
  Result<std::vector<int>> predictions = BinaryColumn(table, "pred");
  ASSERT_TRUE(predictions.ok()) << predictions.status().ToString();
  EXPECT_EQ(data::Bitmap::FromBits(*predictions).ToIndices(),
            (std::vector<size_t>{0, 2}));

  SubgroupAuditOptions options;
  options.min_support = 1;
  Result<SubgroupAuditResult> result =
      AuditSubgroups(table, {"g"}, "pred", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->findings.size(), 2u);
  EXPECT_EQ(result->findings[0].subgroup.ToString(), "g=b");
  EXPECT_EQ(result->findings[0].selection_rate, 0.0);
  EXPECT_EQ(result->findings[1].subgroup.ToString(), "g=a");
  EXPECT_EQ(result->findings[1].selection_rate, 1.0);

  // The prediction column's error outranks the absent attribute
  // column's: predictions are extracted before the index is built.
  for (const char* column : {"score", "missing"}) {
    Result<std::vector<int>> direct = BinaryColumn(table, column);
    ASSERT_FALSE(direct.ok()) << column;
    Result<SubgroupAuditResult> audited =
        AuditSubgroups(table, {"g", "absent"}, column, options);
    ASSERT_FALSE(audited.ok()) << column;
    EXPECT_EQ(audited.status().ToString(), direct.status().ToString());
  }
}

TEST(CountConjunctionsTest, MatchesExhaustiveEnumeration) {
  // Two attributes of arity 2: depth 1 -> 4; depth 2 -> 4 + 4 = 8.
  EXPECT_EQ(CountConjunctions({2, 2}, 1), 4u);
  EXPECT_EQ(CountConjunctions({2, 2}, 2), 8u);
  // Three attributes of arity 3: depth 2 -> 9 + 3*9 = 36.
  EXPECT_EQ(CountConjunctions({3, 3, 3}, 2), 36u);
  // Depth 3 adds 27.
  EXPECT_EQ(CountConjunctions({3, 3, 3}, 3), 63u);
}

TEST(CountConjunctionsTest, AgreesWithAuditExaminedCount) {
  data::Table table = GerrymanderedTable();
  SubgroupAuditOptions options;
  options.max_depth = 2;
  options.min_support = 0;
  SubgroupAuditResult result =
      AuditSubgroups(table, {"gender", "race"}, "pred", options)
          .ValueOrDie();
  EXPECT_EQ(result.subgroups_examined, CountConjunctions({2, 2}, 2));
}

/// Randomized table with enough attribute values to make the depth-3
/// lattice non-trivial (ties in gap included).
data::Table RandomizedTable(size_t rows) {
  stats::Rng rng(42);
  std::string csv = "a0,a1,a2,a3,pred\n";
  for (size_t i = 0; i < rows; ++i) {
    for (int a = 0; a < 4; ++a) {
      csv += "v" + std::to_string(rng.UniformInt(3)) + ",";
    }
    csv += std::to_string(rng.Bernoulli(0.4) ? 1 : 0) + "\n";
  }
  return data::ReadCsvString(csv).ValueOrDie();
}

/// Exact equality — the determinism contract is byte-identical output,
/// not approximate agreement.
void ExpectIdentical(const SubgroupAuditResult& a,
                     const SubgroupAuditResult& b) {
  EXPECT_EQ(a.subgroups_examined, b.subgroups_examined);
  EXPECT_EQ(a.subgroups_skipped_small, b.subgroups_skipped_small);
  EXPECT_EQ(a.any_violation, b.any_violation);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].subgroup.conditions,
              b.findings[i].subgroup.conditions)
        << "finding " << i;
    EXPECT_EQ(a.findings[i].count, b.findings[i].count);
    // Bit-level equality on the doubles, not EXPECT_NEAR.
    EXPECT_EQ(a.findings[i].selection_rate, b.findings[i].selection_rate);
    EXPECT_EQ(a.findings[i].overall_rate, b.findings[i].overall_rate);
    EXPECT_EQ(a.findings[i].gap, b.findings[i].gap);
    EXPECT_EQ(a.findings[i].weighted_gap, b.findings[i].weighted_gap);
  }
}

TEST(SubgroupAuditTest, BitmapEnumeratorMatchesRowwiseReference) {
  data::Table table = RandomizedTable(2000);
  std::vector<std::string> attrs = {"a0", "a1", "a2", "a3"};
  SubgroupAuditOptions options;
  options.max_depth = 3;
  options.min_support = 5;
  SubgroupAuditResult bitmap =
      AuditSubgroups(table, attrs, "pred", options).ValueOrDie();
  SubgroupAuditResult rowwise =
      AuditSubgroupsRowwise(table, attrs, "pred", options).ValueOrDie();
  ExpectIdentical(bitmap, rowwise);
  EXPECT_GT(bitmap.findings.size(), 0u);
}

/// Table whose third attribute is determined by the first for a third
/// of the rows, so some conjunctions are empty and get pruned.
data::Table SparseLatticeTable() {
  std::string csv = "a,b,c,pred\n";
  for (int i = 0; i < 300; ++i) {
    csv += "a" + std::to_string(i % 3) + ",b" + std::to_string(i % 4) + ",";
    csv += i % 3 == 0 ? "x" : "y" + std::to_string(i % 2);
    csv += i % 5 < 2 ? ",1\n" : ",0\n";
  }
  return data::ReadCsvString(csv).ValueOrDie();
}

// Exact kernel-counter values of one audit: the walk order, the number
// of AND/popcount calls and the pruning are part of the contract.
TEST(SubgroupAuditTest, KernelCountersPinnedOnBothPaths) {
  if (!obs::Enabled()) GTEST_SKIP() << "obs disabled";
  const data::Table table = SparseLatticeTable();
  const std::vector<std::string> attrs = {"a", "b", "c"};
  SubgroupAuditOptions options;
  options.max_depth = 3;
  options.min_support = 5;
  obs::Counter* nodes = obs::GetCounter("subgroup.nodes_visited");
  obs::Counter* popcounts = obs::GetCounter("subgroup.popcount_calls");
  obs::Counter* pruned = obs::GetCounter("subgroup.pruned_subtrees");
  const uint64_t nodes_before = nodes->Value();
  const uint64_t popcounts_before = popcounts->Value();
  const uint64_t pruned_before = pruned->Value();
  ASSERT_TRUE(AuditSubgroups(table, attrs, "pred", options).ok());
  EXPECT_EQ(nodes->Value() - nodes_before, 47u);
  EXPECT_EQ(popcounts->Value() - popcounts_before, 126u);
  EXPECT_EQ(pruned->Value() - pruned_before, 32u);
}

TEST(SubgroupDefinitionTest, ToStringFormat) {
  SubgroupDefinition definition;
  EXPECT_EQ(definition.ToString(), "(everyone)");
  definition.conditions = {{"gender", "female"}, {"race", "caucasian"}};
  EXPECT_EQ(definition.ToString(), "gender=female & race=caucasian");
}

}  // namespace
}  // namespace fairlaw::audit
