#include "bench/e2e/gen.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <unistd.h>

#include "base/json_writer.h"
#include "bench/e2e/proc.h"
#include "serve/json_value.h"

namespace fairlaw::bench {

namespace {

void AppendInt(std::string* out, int64_t value) {
  char buffer[24];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, end.ptr);
}

/// Appends a non-negative micro-unit value as fixed six-digit decimal
/// text, so every reader parses bit-identical doubles.
void AppendMicros(std::string* out, int64_t micros) {
  AppendInt(out, micros / 1000000);
  const std::string fraction = std::to_string(micros % 1000000);
  out->push_back('.');
  out->append(6 - fraction.size(), '0');
  out->append(fraction);
}

int64_t ToMicros(double value) {
  return std::llround(std::clamp(value, 0.0, 1.0e6) * 1.0e6);
}

int64_t Clamp01Micros(double value) {
  return ToMicros(std::clamp(value, 0.0, 1.0));
}

constexpr const char* kRegions[] = {"north", "south", "east", "west"};
constexpr const char* kTiers[] = {"a", "b", "c"};
constexpr size_t kCategoryCardinality[] = {2, 3, 4, 5, 6};

/// Rows in the set-up probe's input (the head of each audit CSV).
constexpr size_t kHeadRows = 100;

/// Buffered writer into `path + ".tmp"`, renamed into place on Close so
/// an interrupted run never leaves a truncated cached input behind.
class CsvFile {
 public:
  explicit CsvFile(std::string path) : path_(std::move(path)) {
    file_ = std::fopen((path_ + ".tmp").c_str(), "wb");
  }
  ~CsvFile() {
    if (file_ != nullptr) std::fclose(file_);
  }
  CsvFile(const CsvFile&) = delete;
  CsvFile& operator=(const CsvFile&) = delete;

  bool ok() const { return file_ != nullptr; }
  std::string* buffer() { return &buffer_; }

  void MaybeFlush() {
    if (buffer_.size() >= (1u << 20)) Flush();
  }

  FAIRLAW_NODISCARD Status Close() {
    Flush();
    // On disk before any timing starts: writeback of a fresh input must
    // not run concurrently with the measured invocations.
    const bool failed = std::fflush(file_) != 0 || std::ferror(file_) != 0 ||
                        fsync(fileno(file_)) != 0;
    const bool close_failed = std::fclose(file_) != 0;
    file_ = nullptr;
    if (failed || close_failed ||
        std::rename((path_ + ".tmp").c_str(), path_.c_str()) != 0) {
      return Status::IOError("cannot write '" + path_ + "'");
    }
    return Status::OK();
  }

 private:
  void Flush() {
    std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    buffer_.clear();
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
};

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kAuditStream:
      return "audit_stream";
    case Workload::kAuditSuite:
      return "audit_suite";
    case Workload::kServeIngest:
      return "serve_ingest";
    case Workload::kServeQuery:
      return "serve_query";
  }
  return "unknown";
}

Result<Workload> ParseWorkload(std::string_view name) {
  for (Workload workload : kAllWorkloads) {
    if (name == WorkloadName(workload)) return workload;
  }
  return Status::Invalid("unknown workload '" + std::string(name) +
                         "' (audit_stream|audit_suite|serve_ingest|"
                         "serve_query)");
}

Scale FullScale() {
  Scale scale;
  scale.name = "full";
  scale.stream_rows = 500000;
  scale.suite_rows = 100000;
  scale.saturation_events = 150000;
  scale.ingest_rate = 50000.0;
  scale.query_buckets = 256;
  scale.query_burst = 25;
  scale.query_event_rate = 20000.0;
  scale.query_rate = 40.0;
  return scale;
}

Scale SmokeScale() {
  Scale scale;
  scale.name = "smoke";
  scale.stream_rows = 20000;
  scale.suite_rows = 5000;
  scale.saturation_events = 5000;
  scale.ingest_rate = 20000.0;
  scale.query_buckets = 16;
  scale.query_burst = 5;
  scale.query_event_rate = 5000.0;
  scale.query_rate = 20.0;
  return scale;
}

void Tallies::Add(const std::string& group, int pred) {
  ++rows;
  for (GroupTally& tally : groups) {
    if (tally.group == group) {
      ++tally.count;
      tally.positives += pred;
      return;
    }
  }
  groups.push_back(GroupTally{group, 1, pred});
}

const GroupTally* Tallies::Find(std::string_view group) const {
  for (const GroupTally& tally : groups) {
    if (tally.group == group) return &tally;
  }
  return nullptr;
}

Status SaveTallies(const Tallies& tallies, const std::string& path) {
  JsonWriter json;
  json.BeginObject();
  json.Field("rows", tallies.rows);
  json.Field("rejected", tallies.rejected);
  json.Key("groups");
  json.BeginArray();
  for (const GroupTally& tally : tallies.groups) {
    json.BeginObject();
    json.Field("group", tally.group);
    json.Field("count", tally.count);
    json.Field("positives", tally.positives);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  FAIRLAW_ASSIGN_OR_RETURN(std::string text, json.Finish());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text << '\n';
  if (!out) return Status::IOError("cannot write '" + path + "'");
  return Status::OK();
}

Result<Tallies> LoadTallies(const std::string& path) {
  FAIRLAW_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  FAIRLAW_ASSIGN_OR_RETURN(serve::JsonValue doc, serve::JsonValue::Parse(text));
  Tallies tallies;
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* rows, doc.Get("rows"));
  FAIRLAW_ASSIGN_OR_RETURN(tallies.rows, rows->AsInt64());
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* rejected,
                           doc.Get("rejected"));
  FAIRLAW_ASSIGN_OR_RETURN(tallies.rejected, rejected->AsInt64());
  FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* groups, doc.Get("groups"));
  for (size_t i = 0; i < groups->size(); ++i) {
    const serve::JsonValue& entry = groups->at(i);
    GroupTally tally;
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* group, entry.Get("group"));
    FAIRLAW_ASSIGN_OR_RETURN(tally.group, group->AsString());
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* count, entry.Get("count"));
    FAIRLAW_ASSIGN_OR_RETURN(tally.count, count->AsInt64());
    FAIRLAW_ASSIGN_OR_RETURN(const serve::JsonValue* positives,
                             entry.Get("positives"));
    FAIRLAW_ASSIGN_OR_RETURN(tally.positives, positives->AsInt64());
    tallies.groups.push_back(std::move(tally));
  }
  return tallies;
}

GroupDraw::GroupDraw(size_t count) {
  for (size_t g = 0; g < count; ++g) {
    weights_.push_back(1.0 / std::pow(static_cast<double>(g + 1), 1.1));
    names_.push_back((g < 10 ? "g0" : "g") + std::to_string(g));
  }
}

size_t GroupDraw::Draw(stats::Rng* rng) const {
  return rng->Categorical(weights_);
}

double GroupDraw::pred_rate(size_t g) const {
  return 0.30 + 0.03 * static_cast<double>((g * 7) % 11);
}

double GroupDraw::base_rate(size_t g) const {
  return 0.35 + 0.05 * static_cast<double>((g * 3) % 5);
}

Status WriteAuditCsv(Workload workload, uint64_t seed, size_t rows,
                     const std::string& path, const std::string& head_path,
                     Tallies* tallies) {
  const bool suite = workload == Workload::kAuditSuite;
  stats::Rng rng(seed * 0x9E3779B97F4A7C15ULL + (suite ? 2 : 1));
  const GroupDraw groups(16);
  CsvFile csv(path);
  if (!csv.ok()) return Status::IOError("cannot create '" + path + "'");
  std::string header = "group,pred,label,region,tier,income,tenure";
  if (suite) header += ",score,c1,c2,c3,c4,c5,proxy1,proxy2";
  header += '\n';
  std::string head = header;
  csv.buffer()->append(header);
  *tallies = Tallies{};

  std::string row;
  for (size_t i = 0; i < rows; ++i) {
    size_t g = groups.Draw(&rng);
    int pred = rng.Bernoulli(groups.pred_rate(g)) ? 1 : 0;
    int label = rng.Bernoulli(groups.base_rate(g)) ? 1 : 0;
    if (i < kHeadRows) {
      // The set-up probe audits these rows alone, so every group must
      // show each (pred, label) combination the metrics divide by.
      g = i % groups.size();
      pred = static_cast<int>((i / groups.size()) % 2);
      label = static_cast<int>((i / (2 * groups.size())) % 2);
    }
    row.clear();
    row += groups.name(g);
    row += pred == 1 ? ",1," : ",0,";
    row += label == 1 ? "1," : "0,";
    row += kRegions[rng.UniformInt(4)];
    row += ',';
    row += kTiers[rng.Categorical({0.5, 0.3, 0.2})];
    row += ',';
    AppendMicros(&row, ToMicros(20.0 + 80.0 * rng.Uniform() +
                                2.0 * static_cast<double>(g)));
    row += ',';
    AppendMicros(&row, ToMicros(10.0 * rng.Uniform()));
    if (suite) {
      row += ',';
      AppendMicros(&row, Clamp01Micros(0.15 + 0.45 * rng.Uniform() +
                                       0.25 * label + 0.05 * pred));
      for (size_t c = 0; c < 5; ++c) {
        row += ",v";
        const uint64_t value = rng.UniformInt(kCategoryCardinality[c]);
        AppendInt(&row, static_cast<int64_t>(value));
      }
      row += ',';
      AppendMicros(&row, ToMicros(10.0 + 0.25 * static_cast<double>(g) +
                                  0.5 * rng.Normal()));
      row += ',';
      AppendMicros(&row, ToMicros(10.0 * rng.Uniform()));
    }
    row += '\n';
    csv.buffer()->append(row);
    csv.MaybeFlush();
    if (i < kHeadRows) head += row;
    tallies->Add(groups.name(g), pred);
  }
  FAIRLAW_RETURN_NOT_OK(csv.Close());
  if (!head_path.empty()) {
    CsvFile head_file(head_path);
    if (!head_file.ok()) {
      return Status::IOError("cannot create '" + head_path + "'");
    }
    head_file.buffer()->append(head);
    FAIRLAW_RETURN_NOT_OK(head_file.Close());
  }
  return Status::OK();
}

ServeSpec IngestSpec() {
  ServeSpec spec;
  spec.num_groups = 8;
  spec.num_strata = 2;
  spec.window_buckets = 60;
  spec.out_of_order_frac = 0.01;
  spec.too_late_frac = 0.001;
  return spec;
}

ServeSpec QuerySpec() {
  ServeSpec spec;
  spec.num_groups = 16;
  spec.num_strata = 4;
  spec.window_buckets = 256;
  return spec;
}

EventStream::EventStream(const ServeSpec& spec, uint64_t seed)
    : spec_(spec),
      rng_(seed * 0x9E3779B97F4A7C15ULL + 3),
      groups_(spec.num_groups) {}

GenEvent EventStream::Next() {
  GenEvent event;
  event.group = groups_.Draw(&rng_);
  event.pred = rng_.Bernoulli(groups_.pred_rate(event.group)) ? 1 : 0;
  event.label = rng_.Bernoulli(groups_.base_rate(event.group)) ? 1 : 0;
  event.score_micros =
      Clamp01Micros(0.2 + 0.5 * rng_.Uniform() + 0.15 * event.label -
                    0.01 * static_cast<double>(event.group % 4));
  event.stratum = static_cast<size_t>(rng_.UniformInt(spec_.num_strata));
  const int64_t width = spec_.bucket_width;
  const int64_t window = static_cast<int64_t>(spec_.window_buckets);
  event.t = index_;
  const double u = rng_.Uniform();
  if (u < spec_.too_late_frac && index_ >= (window + 21) * width) {
    const auto behind = window + 1 + static_cast<int64_t>(rng_.UniformInt(20));
    event.t = index_ - behind * width;
  } else if (u < spec_.too_late_frac + spec_.out_of_order_frac &&
             index_ >= 6 * width) {
    event.t = index_ - (1 + static_cast<int64_t>(rng_.UniformInt(5))) * width;
  }
  ++index_;
  // The daemon's rule: the watermark is the highest bucket seen, and an
  // event whose bucket is window_buckets or more behind it is refused.
  const int64_t bucket = event.t / width;
  watermark_ = std::max(watermark_, bucket);
  event.too_late = bucket <= watermark_ - window;
  return event;
}

void EventStream::Render(const GenEvent& event, std::string* out) const {
  *out += "{\"t\":";
  AppendInt(out, event.t);
  *out += ",\"group\":\"";
  *out += groups_.name(event.group);
  *out += event.pred == 1 ? "\",\"pred\":1" : "\",\"pred\":0";
  *out += event.label == 1 ? ",\"label\":1" : ",\"label\":0";
  *out += ",\"score\":";
  AppendMicros(out, event.score_micros);
  *out += ",\"stratum\":\"s";
  AppendInt(out, static_cast<int64_t>(event.stratum));
  *out += "\"}";
}

SessionBuilder::SessionBuilder(const ServeSpec& spec, uint64_t seed)
    : spec_(spec), stream_(spec, seed) {}

Line SessionBuilder::MakeIngest(size_t events) {
  Line line;
  line.kind = Line::Kind::kIngest;
  line.events = static_cast<int32_t>(events);
  line.text = "{\"op\":\"ingest\",\"events\":[";
  for (size_t i = 0; i < events; ++i) {
    const GenEvent event = stream_.Next();
    if (i > 0) line.text += ',';
    stream_.Render(event, &line.text);
    if (event.too_late) {
      ++line.expected_rejects;
      continue;
    }
    const int64_t bucket = event.t / spec_.bucket_width;
    watermark_ = std::max(watermark_, bucket);
    std::vector<std::pair<int64_t, int64_t>>& tally = buckets_[bucket];
    tally.resize(spec_.num_groups);
    tally[event.group].first += 1;
    tally[event.group].second += event.pred;
  }
  line.text += "]}";
  // Buckets that slid out of the window can never count again.
  const int64_t first_live =
      watermark_ - static_cast<int64_t>(spec_.window_buckets) + 1;
  buckets_.erase(buckets_.begin(), buckets_.lower_bound(first_live));
  session_.final_window.rejected += line.expected_rejects;
  return line;
}

Line SessionBuilder::MakeQuery() {
  static constexpr const char* kTypes[] = {"audit", "four_fifths", "drift",
                                           "quantiles", "drilldown"};
  const size_t k = next_query_++;
  const std::string type = kTypes[k % 5];
  Line line;
  line.kind = Line::Kind::kQuery;
  line.text = "{\"op\":\"query\",\"type\":\"" + type + "\"";
  if (type == "quantiles") {
    line.text += ",\"group\":\"g00\",\"q\":[0.1,0.5,0.9]";
  } else if (type == "drilldown") {
    const size_t stratum = (k / 5) % spec_.num_strata;
    line.text += ",\"stratum\":\"s" + std::to_string(stratum) + "\"";
  }
  line.text += '}';
  return line;
}

void SessionBuilder::AddIngest(const std::string& name, size_t events,
                               size_t batch) {
  Phase phase;
  phase.name = name;
  for (size_t done = 0; done < events; done += batch) {
    phase.lines.push_back(MakeIngest(std::min(batch, events - done)));
  }
  session_.phases.push_back(std::move(phase));
}

void SessionBuilder::AddQueries(const std::string& name, size_t queries) {
  Phase phase;
  phase.name = name;
  for (size_t i = 0; i < queries; ++i) phase.lines.push_back(MakeQuery());
  phase.queries = queries;
  session_.phases.push_back(std::move(phase));
}

void SessionBuilder::AddOpenLoop(const std::string& name, double event_rate,
                                 size_t batch, double query_rate,
                                 double seconds) {
  Phase phase;
  phase.name = name;
  phase.paced = true;
  const auto ingest_lines =
      static_cast<size_t>(event_rate * seconds / static_cast<double>(batch));
  const auto queries = static_cast<size_t>(query_rate * seconds);
  const double ingest_interval_ns =
      static_cast<double>(batch) / event_rate * 1e9;
  const double query_interval_ns = query_rate > 0.0 ? 1e9 / query_rate : 0.0;
  size_t i = 0;
  size_t q = 0;
  // Merge the two arrival sequences by due time; an ingest line due at
  // the same instant as a query goes first.
  while (i < ingest_lines || q < queries) {
    const double ingest_due = static_cast<double>(i) * ingest_interval_ns;
    const double query_due =
        (static_cast<double>(q) + 0.5) * query_interval_ns;
    if (i < ingest_lines && (q >= queries || ingest_due <= query_due)) {
      Line line = MakeIngest(batch);
      line.due_ns = static_cast<uint64_t>(ingest_due);
      phase.lines.push_back(std::move(line));
      ++i;
    } else {
      Line line = MakeQuery();
      line.due_ns = static_cast<uint64_t>(query_due);
      phase.lines.push_back(std::move(line));
      ++phase.queries;
      ++q;
    }
  }
  session_.phases.push_back(std::move(phase));
}

void SessionBuilder::AddSingle(const std::string& name, Line::Kind kind,
                               const std::string& text) {
  Phase phase;
  phase.name = name;
  Line line;
  line.kind = kind;
  line.text = text;
  phase.lines.push_back(std::move(line));
  if (kind == Line::Kind::kQuery) phase.queries = 1;
  session_.phases.push_back(std::move(phase));
}

ServeSession SessionBuilder::Finish() {
  session_.final_window.rows = 0;
  session_.final_window.groups.clear();
  std::vector<GroupTally> totals(spec_.num_groups);
  for (const auto& [bucket, tally] : buckets_) {
    for (size_t g = 0; g < tally.size(); ++g) {
      totals[g].count += tally[g].first;
      totals[g].positives += tally[g].second;
    }
  }
  for (size_t g = 0; g < totals.size(); ++g) {
    if (totals[g].count == 0) continue;
    totals[g].group = stream_.groups().name(g);
    session_.final_window.rows += totals[g].count;
    session_.final_window.groups.push_back(totals[g]);
  }
  session_.total_lines = 0;
  for (const Phase& phase : session_.phases) {
    session_.total_lines += phase.lines.size();
  }
  return std::move(session_);
}

}  // namespace fairlaw::bench
