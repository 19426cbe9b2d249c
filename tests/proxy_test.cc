#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "audit/proxy.h"
#include "data/column.h"
#include "data/schema.h"
#include "stats/rng.h"
#include "support/proxy_oracle.h"

namespace fairlaw::audit {
namespace {

using fairlaw::stats::Rng;

/// gender with one strong numeric proxy, one weak proxy, one independent
/// feature, and one categorical proxy.
data::Table ProxyTable(size_t n, double strong, double weak) {
  Rng rng(13);
  std::vector<std::string> gender(n);
  std::vector<double> strong_proxy(n);
  std::vector<double> weak_proxy(n);
  std::vector<double> independent(n);
  std::vector<std::string> district(n);
  for (size_t i = 0; i < n; ++i) {
    bool female = rng.Bernoulli(0.5);
    gender[i] = female ? "female" : "male";
    strong_proxy[i] = (female ? -strong : strong) + rng.Normal(0.0, 1.0);
    weak_proxy[i] = (female ? -weak : weak) + rng.Normal(0.0, 1.0);
    independent[i] = rng.Normal(0.0, 1.0);
    // Categorical proxy: females mostly in district "north".
    district[i] = rng.Bernoulli(female ? 0.85 : 0.15) ? "north" : "south";
  }
  data::Schema schema =
      data::Schema::Make({{"gender", data::DataType::kString},
                          {"strong_proxy", data::DataType::kDouble},
                          {"weak_proxy", data::DataType::kDouble},
                          {"independent", data::DataType::kDouble},
                          {"district", data::DataType::kString}})
          .ValueOrDie();
  return data::Table::Make(
             schema, {data::Column::FromStrings(gender),
                      data::Column::FromDoubles(strong_proxy),
                      data::Column::FromDoubles(weak_proxy),
                      data::Column::FromDoubles(independent),
                      data::Column::FromStrings(district)})
      .ValueOrDie();
}

TEST(ProxyDetectionTest, RanksProxiesByAssociation) {
  data::Table table = ProxyTable(4000, 2.0, 0.5);
  std::vector<ProxyFinding> findings =
      DetectProxies(table, "gender",
                    {"strong_proxy", "weak_proxy", "independent",
                     "district"})
          .ValueOrDie();
  ASSERT_EQ(findings.size(), 4u);
  // Sorted by Cramér's V; the strong proxy or district leads, the
  // independent feature is last.
  EXPECT_EQ(findings.back().feature, "independent");
  EXPECT_LT(findings.back().cramers_v, 0.1);
  // Find the named entries.
  auto find = [&](const std::string& name) -> const ProxyFinding& {
    for (const ProxyFinding& f : findings) {
      if (f.feature == name) return f;
    }
    ADD_FAILURE() << name << " missing";
    return findings[0];
  };
  EXPECT_GT(find("strong_proxy").cramers_v, 0.5);
  EXPECT_TRUE(find("strong_proxy").flagged);
  EXPECT_GT(find("district").cramers_v, 0.5);
  EXPECT_TRUE(find("district").flagged);
  EXPECT_FALSE(find("independent").flagged);
  EXPECT_GT(find("strong_proxy").cramers_v, find("weak_proxy").cramers_v);
  // Mutual information is ordered consistently.
  EXPECT_GT(find("strong_proxy").mutual_information,
            find("independent").mutual_information);
  // Predictability gain: strong proxy predicts gender well above the
  // majority baseline.
  EXPECT_GT(find("strong_proxy").predictability_gain, 0.2);
  EXPECT_LT(find("independent").predictability_gain, 0.05);
}

TEST(ProxyDetectionTest, NoProxiesWhenIndependent) {
  data::Table table = ProxyTable(2000, 0.0, 0.0);
  std::vector<ProxyFinding> findings =
      DetectProxies(table, "gender", {"strong_proxy", "weak_proxy"})
          .ValueOrDie();
  for (const ProxyFinding& finding : findings) {
    EXPECT_FALSE(finding.flagged);
    EXPECT_LT(finding.cramers_v, 0.1);
  }
}

TEST(ProxyContingencyTest, ShapeMatchesBinsAndGroups) {
  data::Table table = ProxyTable(500, 1.0, 0.0);
  auto contingency =
      ProxyContingencyTableOracle(table, "strong_proxy", "gender", 10)
          .ValueOrDie();
  EXPECT_EQ(contingency.size(), 10u);  // 10 quantile bins
  EXPECT_EQ(contingency[0].size(), 2u);  // two genders
  int64_t total = 0;
  for (const auto& row : contingency) {
    for (int64_t cell : row) total += cell;
  }
  EXPECT_EQ(total, 500);
}

TEST(ProxyDetectionTest, Validation) {
  data::Table table = ProxyTable(100, 1.0, 0.0);
  EXPECT_FALSE(DetectProxies(table, "gender", {}).ok());
  EXPECT_FALSE(
      DetectProxies(table, "gender", {"gender"}).ok());  // self-proxy
  EXPECT_FALSE(DetectProxies(table, "gender", {"missing"}).ok());
  ProxyDetectionOptions options;
  options.flag_threshold = 2.0;
  EXPECT_FALSE(
      DetectProxies(table, "gender", {"strong_proxy"}, options).ok());
}

/// Every candidate kind DetectProxies discretizes, and both kinds of
/// protected column: string `gender` (three values) and int64 `age`
/// (quantile-binned when protected). Candidates: int64 `tenure` with
/// heavy ties, double `income`, double `rating` on a coarse grid (ties),
/// double `balance` mixing -0.0 and 0.0, bool `remote`, string
/// `district`, string `constant`, and double `sparse` with nulls.
data::Table MixedTable(size_t n) {
  Rng rng(41);
  static constexpr const char* kGenders[] = {"female", "male", "other"};
  std::vector<std::string> gender(n);
  std::vector<int64_t> age(n);
  std::vector<int64_t> tenure(n);
  std::vector<double> income(n);
  std::vector<double> rating(n);
  std::vector<double> balance(n);
  std::vector<std::string> district(n);
  data::Column remote(data::DataType::kBool);
  data::Column sparse(data::DataType::kDouble);
  for (size_t i = 0; i < n; ++i) {
    const size_t g = rng.UniformInt(3);
    gender[i] = kGenders[g];
    age[i] = 18 + static_cast<int64_t>(rng.UniformInt(50)) +
             static_cast<int64_t>(4 * g);
    tenure[i] = static_cast<int64_t>(rng.UniformInt(g == 0 ? 3 : 6));
    income[i] = 40.0 + 5.0 * static_cast<double>(g) + rng.Normal(0.0, 8.0);
    rating[i] = 0.5 * static_cast<double>(rng.UniformInt(g == 1 ? 4 : 7));
    const uint64_t draw = rng.UniformInt(4);
    balance[i] = draw == 0 ? -0.0 : draw == 1 ? 0.0 : draw == 2 ? -2.0 : 3.5;
    district[i] = rng.Bernoulli(g == 0 ? 0.8 : 0.3) ? "north" : "south";
    remote.AppendBool(rng.Bernoulli(g == 2 ? 0.7 : 0.4));
    if (i % 17 == 5) {
      sparse.AppendNull();
    } else {
      sparse.AppendDouble(rng.Uniform());
    }
  }
  data::Schema schema =
      data::Schema::Make({{"gender", data::DataType::kString},
                          {"age", data::DataType::kInt64},
                          {"tenure", data::DataType::kInt64},
                          {"income", data::DataType::kDouble},
                          {"rating", data::DataType::kDouble},
                          {"balance", data::DataType::kDouble},
                          {"remote", data::DataType::kBool},
                          {"district", data::DataType::kString},
                          {"constant", data::DataType::kString},
                          {"sparse", data::DataType::kDouble}})
          .ValueOrDie();
  return data::Table::Make(
             schema,
             {data::Column::FromStrings(gender), data::Column::FromInt64s(age),
              data::Column::FromInt64s(tenure),
              data::Column::FromDoubles(income),
              data::Column::FromDoubles(rating),
              data::Column::FromDoubles(balance), std::move(remote),
              data::Column::FromStrings(district),
              data::Column::FromStrings(std::vector<std::string>(n, "same")),
              std::move(sparse)})
      .ValueOrDie();
}

/// DetectProxies at one and at four threads returns exactly what the
/// serial oracle does: the same findings in the same order, bit for bit,
/// or the same error text.
void ExpectSameAsOracle(const data::Table& table,
                        const std::string& protected_column,
                        const std::vector<std::string>& candidates,
                        const ProxyDetectionOptions& options = {}) {
  std::string label = protected_column + " vs";
  for (const std::string& name : candidates) label += " " + name;
  label += " bins=" + std::to_string(options.bins);
  const Result<std::vector<ProxyFinding>> want =
      DetectProxiesOracle(table, protected_column, candidates, options);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const Result<std::vector<ProxyFinding>> got =
        DetectProxies(table, protected_column, candidates, options, threads);
    ASSERT_EQ(got.ok(), want.ok()) << label << " threads=" << threads;
    if (!want.ok()) {
      EXPECT_EQ(got.status().message(), want.status().message())
          << label << " threads=" << threads;
      continue;
    }
    ASSERT_EQ(got->size(), want->size()) << label;
    for (size_t i = 0; i < want->size(); ++i) {
      const ProxyFinding& a = (*got)[i];
      const ProxyFinding& b = (*want)[i];
      const std::string where =
          label + " threads=" + std::to_string(threads) + " " + b.feature;
      EXPECT_EQ(a.feature, b.feature) << where;
      EXPECT_EQ(std::bit_cast<uint64_t>(a.cramers_v),
                std::bit_cast<uint64_t>(b.cramers_v))
          << where;
      EXPECT_EQ(std::bit_cast<uint64_t>(a.mutual_information),
                std::bit_cast<uint64_t>(b.mutual_information))
          << where;
      EXPECT_EQ(std::bit_cast<uint64_t>(a.predictability_gain),
                std::bit_cast<uint64_t>(b.predictability_gain))
          << where;
      EXPECT_EQ(a.flagged, b.flagged) << where;
    }
  }
}

TEST(ProxyDetectionTest, MatchesSerialOracleOnEveryColumnKind) {
  // More rows than one 16384-row read chunk, so four threads get a pool.
  const data::Table table = MixedTable(20001);
  const std::vector<std::string> candidates = {
      "tenure", "income", "rating", "balance", "remote", "district"};
  ExpectSameAsOracle(table, "gender", candidates);
  std::vector<std::string> with_gender = candidates;
  with_gender.push_back("gender");
  ExpectSameAsOracle(table, "age", with_gender);
  for (size_t bins : {size_t{2}, size_t{4}, size_t{25}}) {
    ProxyDetectionOptions options;
    options.bins = bins;
    ExpectSameAsOracle(table, "gender", candidates, options);
    ExpectSameAsOracle(table, "age", with_gender, options);
  }
  ExpectSameAsOracle(table, "gender", {"income"});
  ExpectSameAsOracle(MixedTable(7), "age", {"tenure", "rating"});
}

TEST(ProxyDetectionTest, ErrorsMatchSerialOracle) {
  const data::Table table = MixedTable(20001);
  // The first failing candidate in argument order wins.
  const Result<std::vector<ProxyFinding>> missing_first =
      DetectProxies(table, "gender", {"missing", "gender"}, {}, 4);
  ASSERT_FALSE(missing_first.ok());
  EXPECT_NE(missing_first.status().message().find("missing"),
            std::string::npos)
      << missing_first.status().message();
  const Result<std::vector<ProxyFinding>> self_first =
      DetectProxies(table, "gender", {"gender", "missing"}, {}, 4);
  ASSERT_FALSE(self_first.ok());
  EXPECT_EQ(self_first.status().message(),
            "DetectProxies: protected column listed among candidates");

  ExpectSameAsOracle(table, "gender", {"missing", "gender"});
  ExpectSameAsOracle(table, "gender", {"gender", "missing"});
  ExpectSameAsOracle(table, "gender", {"income", "sparse", "missing"});
  ExpectSameAsOracle(table, "gender", {"income", "constant"});
  // A protected column's error comes after the first candidate's own.
  ExpectSameAsOracle(table, "nope", {"income", "district"});
  ExpectSameAsOracle(table, "nope", {"missing", "district"});
  ExpectSameAsOracle(table, "sparse", {"district"});
  ExpectSameAsOracle(table, "sparse", {"gender"});
  ProxyDetectionOptions one_bin;
  one_bin.bins = 1;
  ExpectSameAsOracle(table, "gender", {"district", "income"}, one_bin);
  ExpectSameAsOracle(table, "age", {"district", "income"}, one_bin);
  ExpectSameAsOracle(table, "gender", {}, {});
  ProxyDetectionOptions bad_threshold;
  bad_threshold.flag_threshold = -0.5;
  ExpectSameAsOracle(table, "gender", {"income"}, bad_threshold);
}

}  // namespace
}  // namespace fairlaw::audit
