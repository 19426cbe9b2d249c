#include <gtest/gtest.h>

#include "audit/report_io.h"
#include "base/json_writer.h"
#include "core/json.h"
#include "data/csv.h"
#include "metrics/group_metrics.h"
#include "serve/json_value.h"

namespace fairlaw {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string("\x01")), "\\u0001");
}

TEST(JsonWriterTest, BuildsNestedDocument) {
  JsonWriter json;
  json.BeginObject();
  json.Field("name", std::string("fairlaw"));
  json.Field("version", int64_t{1});
  json.Field("ratio", 0.5);
  json.Field("ok", true);
  json.Key("items");
  json.BeginArray();
  json.Int(1);
  json.Int(2);
  json.BeginObject();
  json.Field("nested", false);
  json.EndObject();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(json.Finish().ValueOrDie(),
            "{\"name\":\"fairlaw\",\"version\":1,\"ratio\":0.5,"
            "\"ok\":true,\"items\":[1,2,{\"nested\":false}]}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray();
  json.Number(std::numeric_limits<double>::quiet_NaN());
  json.Number(std::numeric_limits<double>::infinity());
  json.EndArray();
  EXPECT_EQ(json.Finish().ValueOrDie(), "[null,null]");
}

TEST(JsonWriterTest, UnclosedContainerFailsFinish) {
  JsonWriter json;
  json.BeginObject();
  EXPECT_TRUE(json.Finish().status().IsFailedPrecondition());
}

TEST(MetricReportJsonTest, RoundTripKeyFields) {
  metrics::MetricInput input;
  for (int i = 0; i < 10; ++i) {
    input.groups.push_back(i < 5 ? "a" : "b");
    input.predictions.push_back(i % 5 < 2 ? 1 : 0);  // both groups at 0.4
  }
  metrics::MetricReport report =
      metrics::Evaluate(metrics::MetricId::kDemographicParity, input, 0.1)
          .ValueOrDie();
  JsonWriter writer;
  audit::WriteMetricReport(&writer, report);
  std::string json = writer.Finish().ValueOrDie();
  EXPECT_NE(json.find("\"metric\":\"demographic_parity\""),
            std::string::npos);
  EXPECT_NE(json.find("\"satisfied\":true"), std::string::npos);
  EXPECT_NE(json.find("\"group\":\"a\""), std::string::npos);
}

TEST(SuiteReportJsonTest, SerializesFullSuite) {
  data::Table table =
      data::ReadCsvString(
          "g,score,pred,label\n"
          "a,1.0,1,1\na,0.5,1,0\na,0.2,0,0\na,0.9,1,1\n"
          "b,0.8,0,1\nb,0.3,0,0\nb,0.1,0,0\nb,0.7,1,1\n")
          .ValueOrDie();
  SuiteConfig config;
  config.audit.protected_column = "g";
  config.audit.prediction_column = "pred";
  config.audit.label_column = "label";
  config.proxy_candidates = {"score"};
  config.subgroup_columns = {"g"};
  config.subgroup_options.min_support = 2;
  config.sampling_options.min_count = 2;
  config.sampling_options.max_ci_halfwidth = 0.9;
  // The data is half a, half b: a is under-represented against 70/30.
  config.population_shares = {{"a", 0.7}, {"b", 0.3}};
  SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
  std::string json = SuiteReportToJson(report).ValueOrDie();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"proxies\":["), std::string::npos);
  EXPECT_NE(json.find("\"subgroups\":"), std::string::npos);
  EXPECT_NE(json.find("\"sampling\":["), std::string::npos);
  EXPECT_NE(json.find("\"four_fifths\":"), std::string::npos);

  // A failed composition flips all_clear, so the finding that explains
  // it must be in the JSON too, not only in the rendered text.
  ASSERT_TRUE(report.representation.has_value());
  const audit::RepresentationReport& rep = *report.representation;
  EXPECT_FALSE(rep.composition_ok);
  EXPECT_FALSE(report.all_clear);
  // Numbers are written to 10 significant digits.
  auto number = [](const serve::JsonValue& object, const char* key) {
    return object.Get(key).ValueOrDie()->AsDouble().ValueOrDie();
  };
  auto flag = [](const serve::JsonValue& object, const char* key) {
    return object.Get(key).ValueOrDie()->AsBool().ValueOrDie();
  };
  serve::JsonValue doc = serve::JsonValue::Parse(json).ValueOrDie();
  const serve::JsonValue& findings = *doc.Get("findings").ValueOrDie();
  EXPECT_FALSE(flag(findings, "all_clear"));
  ASSERT_NE(findings.GetOrNull("representation"), nullptr);
  const serve::JsonValue& section = *findings.GetOrNull("representation");
  EXPECT_FALSE(flag(section, "composition_ok"));
  EXPECT_NEAR(number(section, "total_variation"), rep.total_variation, 1e-9);
  EXPECT_NEAR(number(section, "hellinger"), rep.hellinger, 1e-9);
  EXPECT_NEAR(number(section, "chi_square_p_value"), rep.chi_square_p_value,
              1e-9);
  const serve::JsonValue& groups = *section.Get("groups").ValueOrDie();
  ASSERT_EQ(groups.size(), rep.groups.size());
  for (size_t g = 0; g < rep.groups.size(); ++g) {
    const serve::JsonValue& group = groups.at(g);
    const audit::GroupRepresentation& expected = rep.groups[g];
    EXPECT_EQ(group.Get("group").ValueOrDie()->AsString().ValueOrDie(),
              expected.group);
    EXPECT_NEAR(number(group, "data_share"), expected.data_share, 1e-9);
    EXPECT_NEAR(number(group, "reference_share"), expected.reference_share,
                1e-9);
    EXPECT_NEAR(number(group, "representation_ratio"),
                expected.representation_ratio, 1e-9);
    EXPECT_EQ(flag(group, "under_represented"), expected.under_represented);
  }
  EXPECT_TRUE(rep.groups[0].group == "a" && rep.groups[0].under_represented);
  // Balanced braces/brackets (cheap structural sanity check).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace fairlaw
