#include "bench/e2e/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

#include "base/json_writer.h"
#include "bench/e2e/proc.h"
#include "serve/json_value.h"

namespace fairlaw::bench {

namespace {

constexpr const char* kResultsTail = "\n]}\n";

std::string InvocationJson(const WorkloadReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Field("workload", report.workload);
  json.Field("seed", static_cast<int64_t>(report.seed));
  json.Field("attempted", report.attempted);
  json.Field("failed", report.failed);
  json.Field("error_frac", report.error_frac());
  json.Key("metrics");
  json.BeginArray();
  for (const Metric& metric : report.metrics) {
    json.BeginObject();
    json.Field("name", metric.name);
    json.Field("value", metric.value);
    json.Field("unit", metric.unit);
    json.Field("samples", metric.samples);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.Finish().ValueOrDie();
}

Result<std::string> StringField(const serve::JsonValue& doc,
                                std::string_view key) {
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* value, doc.Get(key));
  return value->AsString();
}

Result<double> NumberField(const serve::JsonValue& doc, std::string_view key) {
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* value, doc.Get(key));
  return value->AsDouble();
}

using Samples =
    std::map<std::pair<std::string, std::string>, std::vector<double>>;

/// (workload, metric) -> one value per invocation; error_frac rides
/// along as a metric of its own.
Result<Samples> LoadSamples(const std::string& path) {
  FAIRLAW_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  FAIRLAW_ASSIGN_OR_RETURN(serve::JsonValue doc, serve::JsonValue::Parse(text));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* invocations,
                           doc.Get("invocations"));
  Samples samples;
  for (size_t i = 0; i < invocations->size(); ++i) {
    const serve::JsonValue& invocation = invocations->at(i);
    FAIRLAW_ASSIGN_OR_RETURN(std::string workload,
                             StringField(invocation, "workload"));
    FAIRLAW_ASSIGN_OR_RETURN(double error_frac,
                             NumberField(invocation, "error_frac"));
    samples[{workload, "error_frac"}].push_back(error_frac);
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* metrics,
                             invocation.Get("metrics"));
    for (size_t m = 0; m < metrics->size(); ++m) {
      FAIRLAW_ASSIGN_OR_RETURN(std::string name,
                               StringField(metrics->at(m), "name"));
      FAIRLAW_ASSIGN_OR_RETURN(double value,
                               NumberField(metrics->at(m), "value"));
      samples[{workload, name}].push_back(value);
    }
  }
  return samples;
}

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0.0;
};

Result<std::vector<Bound>> LoadBounds(const std::string& path) {
  FAIRLAW_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  FAIRLAW_ASSIGN_OR_RETURN(serve::JsonValue doc, serve::JsonValue::Parse(text));
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* metrics,
                           doc.Get("end_to_end"));
  std::vector<Bound> bounds;
  for (size_t i = 0; i < metrics->size(); ++i) {
    Bound bound;
    FAIRLAW_ASSIGN_OR_RETURN(bound.name, StringField(metrics->at(i), "name"));
    FAIRLAW_ASSIGN_OR_RETURN(std::string better,
                             StringField(metrics->at(i), "better"));
    bound.higher_is_better = better == "higher";
    FAIRLAW_ASSIGN_OR_RETURN(bound.bound, NumberField(metrics->at(i), "bound"));
    bounds.push_back(std::move(bound));
  }
  // Any rise in the share of failed operations is a regression.
  bounds.push_back(Bound{"error_frac", false, 0.0});
  return bounds;
}

}  // namespace

void WorkloadReport::Add(const std::string& name, double value,
                         const std::string& unit, int64_t samples) {
  metrics.push_back(Metric{name, value, unit, samples});
}

void WorkloadReport::Count(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void WorkloadReport::Fail(const std::string& what, const Status& status) {
  Count(false, what + ": " + status.ToString());
}

double WorkloadReport::error_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Quartiles(std::vector<double> values, double* q1, double* q3) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  const int64_t m = n + 1;
  auto cut = [&](int64_t i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    return (values[static_cast<size_t>(j - 1)] * (4.0 - delta) +
            values[static_cast<size_t>(j)] * delta) /
           4.0;
  };
  *q1 = cut(1);
  *q3 = cut(3);
}

double RelativeSpread(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  Quartiles(values, &q1, &q3);
  const double median = Median(values);
  return median == 0.0 ? 0.0 : (q3 - q1) / std::fabs(median);
}

void PrintHuman(const WorkloadReport& report) {
  for (const Metric& metric : report.metrics) {
    std::printf("%s %s %.10g %s\n", report.workload.c_str(),
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("%s error_frac %.10g ratio\n", report.workload.c_str(),
              report.error_frac());
  for (size_t i = 0; i < report.failures.size() && i < 10; ++i) {
    std::printf("%s FAILED %s\n", report.workload.c_str(),
                report.failures[i].c_str());
  }
}

std::string ResultLine(const std::vector<WorkloadReport>& reports) {
  int64_t attempted = 0;
  int64_t failed = 0;
  JsonWriter metrics;
  metrics.BeginObject();
  for (const WorkloadReport& report : reports) {
    attempted += report.attempted;
    failed += report.failed;
    for (const Metric& metric : report.metrics) {
      metrics.Key(reports.size() == 1 ? metric.name
                                      : report.workload + "/" + metric.name);
      metrics.BeginObject();
      metrics.Field("value", metric.value);
      metrics.Field("unit", metric.unit);
      metrics.EndObject();
    }
  }
  metrics.EndObject();
  JsonWriter json;
  json.BeginObject();
  json.Field("correct", failed == 0);
  json.Field("attempted", std::max<int64_t>(attempted, 1));
  json.Field("failed", failed);
  json.EndObject();
  std::string line = json.Finish().ValueOrDie();
  line.pop_back();  // splice the metrics object into the closing brace
  return line + ",\"metrics\":" + metrics.Finish().ValueOrDie() + "}";
}

Status AppendResults(const std::string& dir,
                     const std::vector<WorkloadReport>& reports) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create '" + dir + "'");
  const std::string path = dir + "/results.json";
  std::string text = "{\"invocations\":[\n";
  bool first = true;
  if (std::filesystem::exists(path)) {
    FAIRLAW_ASSIGN_OR_RETURN(text, ReadFile(path));
    const std::string tail = kResultsTail;
    if (text.size() < tail.size() ||
        text.compare(text.size() - tail.size(), tail.size(), tail) != 0) {
      return Status::Invalid("'" + path + "' is not a results file");
    }
    text.resize(text.size() - tail.size());
    first = text.back() == '\n';  // "[\n" with no invocation yet
  }
  for (const WorkloadReport& report : reports) {
    if (!first) text += ",\n";
    first = false;
    text += InvocationJson(report);
  }
  text += kResultsTail;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) return Status::IOError("cannot write '" + path + "'");
  return Status::OK();
}

Result<bool> Compare(const std::string& a_path, const std::string& b_path,
                     const std::string& benchmark_path) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<Bound> bounds,
                           LoadBounds(benchmark_path));
  FAIRLAW_ASSIGN_OR_RETURN(Samples a, LoadSamples(a_path));
  FAIRLAW_ASSIGN_OR_RETURN(Samples b, LoadSamples(b_path));
  std::vector<std::string> workloads;
  for (const auto& [key, values] : a) {
    if (std::find(workloads.begin(), workloads.end(), key.first) ==
        workloads.end()) {
      workloads.push_back(key.first);
    }
  }
  std::printf("%-13s %-24s %5s %14s %14s %8s %8s %8s %6s  %s\n", "workload",
              "metric", "n", "median_a", "median_b", "spread_a", "spread_b",
              "worse", "bound", "verdict");
  bool all_ok = true;
  for (const std::string& workload : workloads) {
    for (const Bound& bound : bounds) {
      const auto a_it = a.find({workload, bound.name});
      const auto b_it = b.find({workload, bound.name});
      if (a_it == a.end()) continue;  // metric not recorded in A
      if (b_it == b.end()) {
        std::printf("%-13s %-24s missing from B\n", workload.c_str(),
                    bound.name.c_str());
        all_ok = false;
        continue;
      }
      const double median_a = Median(a_it->second);
      const double median_b = Median(b_it->second);
      const double spread_a = RelativeSpread(a_it->second);
      const double spread_b = RelativeSpread(b_it->second);
      const double delta = bound.higher_is_better ? median_a - median_b
                                                  : median_b - median_a;
      const double worse =
          median_a == 0.0 ? (delta > 0.0 ? 1.0 : 0.0) : delta / median_a;
      // An unresolved pairing is reported but does not fail the
      // comparison: its medians agree, the runs just spread too wide to
      // tell.
      const char* verdict = "ok";
      if (bound.name == "error_frac") {
        if (median_b > median_a || median_b > 0.0) verdict = "FAILED";
      } else if (worse > bound.bound) {
        verdict = "REGRESSED";
      } else if (spread_a > bound.bound || spread_b > bound.bound) {
        verdict = "unresolved";
      }
      if (std::string_view(verdict) == "REGRESSED" ||
          std::string_view(verdict) == "FAILED") {
        all_ok = false;
      }
      std::printf("%-13s %-24s %2zu/%-2zu %14.6g %14.6g %8.4f %8.4f %8.4f "
                  "%6.3f  %s\n",
                  workload.c_str(), bound.name.c_str(), a_it->second.size(),
                  b_it->second.size(), median_a, median_b, spread_a, spread_b,
                  worse, bound.bound, verdict);
    }
  }
  return all_ok;
}

}  // namespace fairlaw::bench
