// E1 — §III worked examples, computed by the library on the paper's
// literal populations. Regenerates the narrative numbers of §III-A..F:
// who counts as fair in each example and what happens one hire either
// side of the fair point.
#include <cstdio>
#include <string>
#include <vector>

#include "metrics/conditional_metrics.h"
#include "metrics/group_metrics.h"

namespace {

using fairlaw::metrics::ConditionalReport;
using fairlaw::metrics::Evaluate;
using fairlaw::metrics::EvaluateConditional;
using fairlaw::metrics::MetricId;
using fairlaw::metrics::MetricInput;
using fairlaw::metrics::MetricReport;

void AddRows(MetricInput* input, const std::string& group, int prediction,
             int label, int count) {
  for (int i = 0; i < count; ++i) {
    input->groups.push_back(group);
    input->predictions.push_back(prediction);
    if (label >= 0) input->labels.push_back(label);
  }
}

void PrintRow(const std::string& scenario, const MetricReport& report) {
  std::printf("  %-34s gap=%6.3f ratio=%6.3f -> %s\n", scenario.c_str(),
              report.max_gap, report.min_ratio,
              report.satisfied ? "FAIR" : "BIASED");
}

void ExampleA() {
  std::printf("III-A demographic parity (10 female / 20 male, 10 males "
              "hired):\n");
  for (int hired : {3, 5, 8}) {
    MetricInput input;
    AddRows(&input, "male", 1, -1, 10);
    AddRows(&input, "male", 0, -1, 10);
    AddRows(&input, "female", 1, -1, hired);
    AddRows(&input, "female", 0, -1, 10 - hired);
    PrintRow(std::to_string(hired) + " females hired",
             Evaluate(MetricId::kDemographicParity, input, 0.0).ValueOrDie());
  }
}

void ExampleB() {
  std::printf("III-B conditional statistical parity (young stratum: 10 M "
              "/ 6 F, 5 young males hired):\n");
  for (int hired : {1, 3, 5}) {
    MetricInput input;
    std::vector<std::string> strata;
    auto add = [&](const std::string& g, const std::string& s, int p,
                   int count) {
      for (int i = 0; i < count; ++i) {
        input.groups.push_back(g);
        input.predictions.push_back(p);
        strata.push_back(s);
      }
    };
    add("male", "young", 1, 5);
    add("male", "young", 0, 5);
    add("female", "young", 1, hired);
    add("female", "young", 0, 6 - hired);
    add("male", "old", 1, 4);
    add("male", "old", 0, 6);
    add("female", "old", 1, 2);
    add("female", "old", 0, 3);
    ConditionalReport report =
        EvaluateConditional(MetricId::kDemographicParity, input, strata, 0.0,
                            /*min_stratum_size=*/1)
            .ValueOrDie();
    std::printf("  %d young females hired: worst stratum gap=%6.3f -> %s\n",
                hired, report.max_gap,
                report.satisfied ? "FAIR" : "BIASED");
  }
}

void ExampleC() {
  std::printf("III-C equal opportunity (10 male good matches, 6 female; 5 "
              "good males hired):\n");
  for (int hired : {1, 3, 6}) {
    MetricInput input;
    AddRows(&input, "male", 1, 1, 5);
    AddRows(&input, "male", 0, 1, 5);
    AddRows(&input, "male", 0, 0, 10);
    AddRows(&input, "female", 1, 1, hired);
    AddRows(&input, "female", 0, 1, 6 - hired);
    AddRows(&input, "female", 0, 0, 4);
    PrintRow(std::to_string(hired) + " good females hired",
             Evaluate(MetricId::kEqualOpportunity, input, 0.0).ValueOrDie());
  }
}

void ExampleD() {
  std::printf("III-D equalized odds (6 F / 12 M; 6 good males hired, 6 bad "
              "males rejected):\n");
  struct Case {
    int good_hired;
    int bad_hired;
    const char* label;
  };
  for (const Case& c : {Case{3, 0, "all 3 good F hired, 0 bad F hired"},
                        Case{2, 0, "only 2 good F hired"},
                        Case{3, 1, "a bad-match F hired too"}}) {
    MetricInput input;
    AddRows(&input, "male", 1, 1, 6);
    AddRows(&input, "male", 0, 0, 6);
    AddRows(&input, "female", 1, 1, c.good_hired);
    AddRows(&input, "female", 0, 1, 3 - c.good_hired);
    AddRows(&input, "female", 1, 0, c.bad_hired);
    AddRows(&input, "female", 0, 0, 3 - c.bad_hired);
    PrintRow(c.label,
             Evaluate(MetricId::kEqualizedOdds, input, 0.0).ValueOrDie());
  }
}

void ExampleE() {
  std::printf("III-E demographic disparity (10 female applicants):\n");
  for (int hired : {6, 5, 4}) {
    MetricInput input;
    AddRows(&input, "female", 1, -1, hired);
    AddRows(&input, "female", 0, -1, 10 - hired);
    MetricReport report =
        Evaluate(MetricId::kDemographicDisparity, input, 0.0).ValueOrDie();
    std::printf("  %d hired / %d rejected -> %s\n", hired, 10 - hired,
                report.satisfied ? "FAIR" : "UNFAIR");
  }
}

void ExampleF() {
  std::printf("III-F conditional demographic disparity (100 females, 5 "
              "jobs; all accepted in jobs 1-4, all rejected in job 5):\n");
  MetricInput input;
  std::vector<std::string> strata;
  for (int job = 1; job <= 4; ++job) {
    for (int i = 0; i < 10; ++i) {
      input.groups.push_back("female");
      input.predictions.push_back(1);
      strata.push_back("job" + std::to_string(job));
    }
  }
  for (int i = 0; i < 60; ++i) {
    input.groups.push_back("female");
    input.predictions.push_back(0);
    strata.push_back("job5");
  }
  MetricReport plain =
      Evaluate(MetricId::kDemographicDisparity, input, 0.0).ValueOrDie();
  std::printf("  unconditional demographic disparity -> %s\n",
              plain.satisfied ? "FAIR" : "UNFAIR");
  ConditionalReport conditional =
      EvaluateConditional(MetricId::kDemographicDisparity, input, strata, 0.0,
                          /*min_stratum_size=*/1)
          .ValueOrDie();
  for (const auto& stratum : conditional.strata) {
    std::printf("  conditioned on %s -> %s\n", stratum.stratum.c_str(),
                stratum.report.satisfied ? "FAIR" : "UNFAIR");
  }
}

}  // namespace

int main() {
  std::printf("=== E1: paper section III worked examples ===\n");
  ExampleA();
  ExampleB();
  ExampleC();
  ExampleD();
  ExampleE();
  ExampleF();
  std::printf("(III-G counterfactual fairness is exercised in E3 and the "
              "counterfactual tests)\n");
  return 0;
}
