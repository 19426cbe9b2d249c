#include "serve/api.h"

#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>

#include "base/string_util.h"
#include "serve/json_scan.h"

namespace fairlaw::serve {

Status ServeConfig::Validate() const {
  if (bucket_width <= 0) {
    return Status::Invalid("ServeConfig: bucket_width must be > 0");
  }
  if (num_buckets == 0) {
    return Status::Invalid("ServeConfig: num_buckets must be > 0");
  }
  if (with_scores && !with_labels) {
    return Status::Invalid(
        "ServeConfig: with_scores requires with_labels (mirrors the "
        "AuditConfig score/label coupling)");
  }
  if (sketch_k == 0) {
    return Status::Invalid("ServeConfig: sketch_k must be > 0");
  }
  // Threshold ranges are enforced by AuditConfig::Validate via
  // ToAuditConfig; check here too so the daemon refuses bad flags at
  // startup rather than at the first query.
  return ToAuditConfig().Validate();
}

audit::AuditConfig ServeConfig::ToAuditConfig() const {
  audit::AuditConfig config;
  config.protected_column = "group";
  config.prediction_column = "pred";
  if (with_labels) config.label_column = "label";
  if (with_scores) {
    config.score_column = "score";
    config.audit_score_distribution = true;
  }
  if (with_strata) config.strata_columns = {"stratum"};
  config.tolerance = tolerance;
  config.di_threshold = di_threshold;
  config.score_distribution_tolerance = drift_tolerance;
  config.min_stratum_size = min_stratum_size;
  return config;
}

Status Event::Validate(const ServeConfig& config) const {
  if (t < 0) return Status::Invalid("event: t must be >= 0");
  if (group.empty()) return Status::Invalid("event: group must be set");
  if (pred != 0 && pred != 1) {
    return Status::Invalid("event: pred must be 0 or 1");
  }
  if (config.with_labels != has_label) {
    return Status::Invalid(config.with_labels
                               ? "event: label required by daemon schema"
                               : "event: label not in daemon schema");
  }
  if (has_label && label != 0 && label != 1) {
    return Status::Invalid("event: label must be 0 or 1");
  }
  if (config.with_scores != has_score) {
    return Status::Invalid(config.with_scores
                               ? "event: score required by daemon schema"
                               : "event: score not in daemon schema");
  }
  if (has_score && !std::isfinite(score)) {
    return Status::Invalid("event: score must be finite");
  }
  if (config.with_strata != has_stratum) {
    return Status::Invalid(config.with_strata
                               ? "event: stratum required by daemon schema"
                               : "event: stratum not in daemon schema");
  }
  if (has_stratum && stratum.empty()) {
    return Status::Invalid("event: stratum must be non-empty");
  }
  return Status::OK();
}

Status QueryRequest::Validate(const ServeConfig& config) const {
  if (type == "audit" || type == "four_fifths") return Status::OK();
  if (type == "drift") {
    if (!config.with_scores) {
      return Status::Invalid("query: drift requires a daemon with scores");
    }
    return Status::OK();
  }
  if (type == "drilldown") {
    if (!config.with_strata) {
      return Status::Invalid(
          "query: drilldown requires a daemon with strata");
    }
    if (stratum.empty()) {
      return Status::Invalid("query: drilldown requires 'stratum'");
    }
    return Status::OK();
  }
  if (type == "quantiles") {
    if (!config.with_scores) {
      return Status::Invalid(
          "query: quantiles requires a daemon with scores");
    }
    if (group.empty()) {
      return Status::Invalid("query: quantiles requires 'group'");
    }
    if (quantiles.empty()) {
      return Status::Invalid("query: quantiles requires non-empty 'q'");
    }
    for (double q : quantiles) {
      if (!(q >= 0.0 && q <= 1.0)) {
        return Status::Invalid("query: quantiles must lie in [0,1]");
      }
    }
    return Status::OK();
  }
  return Status::Invalid("query: unknown type '" + type + "'");
}

namespace {

Result<Event> ParseEvent(const JsonValue& doc) {
  Event event;
  FAIRLAW_ASSIGN_OR_RETURN(const JsonValue* t, doc.Get("t"));
  FAIRLAW_ASSIGN_OR_RETURN(event.t, t->AsInt64());
  FAIRLAW_ASSIGN_OR_RETURN(const JsonValue* group, doc.Get("group"));
  FAIRLAW_ASSIGN_OR_RETURN(event.group, group->AsString());
  FAIRLAW_ASSIGN_OR_RETURN(const JsonValue* pred, doc.Get("pred"));
  FAIRLAW_ASSIGN_OR_RETURN(int64_t pred_value, pred->AsInt64());
  event.pred = static_cast<int>(pred_value);
  if (pred_value != 0 && pred_value != 1) {
    return Status::Invalid("event: pred must be 0 or 1");
  }
  if (const JsonValue* label = doc.GetOrNull("label"); label != nullptr) {
    FAIRLAW_ASSIGN_OR_RETURN(int64_t label_value, label->AsInt64());
    if (label_value != 0 && label_value != 1) {
      return Status::Invalid("event: label must be 0 or 1");
    }
    event.label = static_cast<int>(label_value);
    event.has_label = true;
  }
  if (const JsonValue* score = doc.GetOrNull("score"); score != nullptr) {
    FAIRLAW_ASSIGN_OR_RETURN(event.score, score->AsDouble());
    event.has_score = true;
  }
  if (const JsonValue* stratum = doc.GetOrNull("stratum");
      stratum != nullptr) {
    FAIRLAW_ASSIGN_OR_RETURN(event.stratum, stratum->AsString());
    event.has_stratum = true;
  }
  return event;
}

}  // namespace

Result<Request> ParseRequest(const JsonValue& doc,
                             const ServeConfig& config) {
  if (!doc.is_object()) {
    return Status::Invalid("request: expected a JSON object");
  }
  if (const JsonValue* version = doc.GetOrNull("schema_version");
      version != nullptr) {
    FAIRLAW_ASSIGN_OR_RETURN(int64_t v, version->AsInt64());
    if (v < 1) return Status::Invalid("request: schema_version must be >= 1");
    if (v > audit::kReportSchemaVersion) {
      return Status::NotImplemented(
          "request: schema_version " + std::to_string(v) +
          " is newer than this daemon (speaks " +
          std::to_string(audit::kReportSchemaVersion) + ")");
    }
  }
  FAIRLAW_ASSIGN_OR_RETURN(const JsonValue* op_value, doc.Get("op"));
  FAIRLAW_ASSIGN_OR_RETURN(std::string op, op_value->AsString());

  Request request;
  if (op == "ingest") {
    request.op = Request::Op::kIngest;
    FAIRLAW_ASSIGN_OR_RETURN(const JsonValue* events, doc.Get("events"));
    if (!events->is_array()) {
      return Status::Invalid("ingest: 'events' must be an array");
    }
    request.ingest.events.reserve(events->size());
    for (size_t i = 0; i < events->size(); ++i) {
      FAIRLAW_ASSIGN_OR_RETURN(Event event, ParseEvent(events->at(i)));
      request.ingest.events.push_back(std::move(event));
    }
    return request;
  }
  if (op == "query") {
    request.op = Request::Op::kQuery;
    FAIRLAW_ASSIGN_OR_RETURN(const JsonValue* type, doc.Get("type"));
    FAIRLAW_ASSIGN_OR_RETURN(request.query.type, type->AsString());
    if (const JsonValue* stratum = doc.GetOrNull("stratum");
        stratum != nullptr) {
      FAIRLAW_ASSIGN_OR_RETURN(request.query.stratum, stratum->AsString());
    }
    if (const JsonValue* group = doc.GetOrNull("group"); group != nullptr) {
      FAIRLAW_ASSIGN_OR_RETURN(request.query.group, group->AsString());
    }
    if (const JsonValue* q = doc.GetOrNull("q"); q != nullptr) {
      if (!q->is_array()) {
        return Status::Invalid("query: 'q' must be an array of numbers");
      }
      for (size_t i = 0; i < q->size(); ++i) {
        FAIRLAW_ASSIGN_OR_RETURN(double value, q->at(i).AsDouble());
        request.query.quantiles.push_back(value);
      }
    }
    FAIRLAW_RETURN_NOT_OK(request.query.Validate(config));
    return request;
  }
  if (op == "stats") {
    request.op = Request::Op::kStats;
    return request;
  }
  return Status::Invalid("request: unknown op '" + op + "'");
}

namespace {

/// DecodeIngestLine's one pass. Every method returns false at the first
/// byte outside the canonical ingest shape; nothing is ingested until
/// the whole line has been read, so declining is always safe.
class IngestDecoder : private JsonCursor {
 public:
  IngestDecoder(std::string_view line, std::vector<Event>* events)
      : JsonCursor(line), events_(events) {}

  bool Decode() {
    SkipSpace();
    if (!Consume('{')) return false;
    bool has_op = false;
    bool has_events = false;
    bool has_version = false;
    do {
      std::string_view key;
      if (!Key(&key)) return false;
      if (key == "op" && !has_op) {
        std::string_view op;
        if (!String(&op) || op != "ingest") return false;
        has_op = true;
      } else if (key == "events" && !has_events) {
        if (!Events()) return false;
        has_events = true;
      } else if (key == "schema_version" && !has_version) {
        int64_t version = 0;
        if (!Int64(&version) || version < 1 ||
            version > audit::kReportSchemaVersion) {
          return false;
        }
        has_version = true;
      } else {
        return false;
      }
      SkipSpace();
    } while (Consume(','));
    if (!Consume('}')) return false;
    SkipSpace();
    return AtEnd() && has_op && has_events;
  }

 private:
  /// The event fields, one bit each, for the repeat and required checks.
  enum EventField : unsigned {
    kT = 1,
    kGroup = 2,
    kPred = 4,
    kLabel = 8,
    kScore = 16,
    kStratum = 32,
  };

  bool Events() {
    if (!Consume('[')) return false;
    events_->clear();
    SkipSpace();
    if (Consume(']')) return true;
    do {
      SkipSpace();
      if (!DecodeEvent(&events_->emplace_back())) return false;
      SkipSpace();
    } while (Consume(','));
    return Consume(']');
  }

  bool DecodeEvent(Event* event) {
    if (!Consume('{')) return false;
    unsigned seen = 0;
    do {
      std::string_view key;
      if (!Key(&key)) return false;
      unsigned field = 0;
      std::string_view text;
      int64_t flag = 0;
      if (key == "t") {
        field = kT;
        if (!Int64(&event->t)) return false;
      } else if (key == "group") {
        field = kGroup;
        if (!String(&text)) return false;
        event->group.assign(text);
      } else if (key == "pred") {
        field = kPred;
        if (!Binary(&flag)) return false;
        event->pred = static_cast<int>(flag);
      } else if (key == "label") {
        field = kLabel;
        if (!Binary(&flag)) return false;
        event->label = static_cast<int>(flag);
        event->has_label = true;
      } else if (key == "score") {
        field = kScore;
        if (!Double(&event->score)) return false;
        event->has_score = true;
      } else if (key == "stratum") {
        field = kStratum;
        if (!String(&text)) return false;
        event->stratum.assign(text);
        event->has_stratum = true;
      }
      if (field == 0 || (seen & field) != 0) return false;
      seen |= field;
      SkipSpace();
    } while (Consume(','));
    constexpr unsigned kRequired = kT | kGroup | kPred;
    return Consume('}') && (seen & kRequired) == kRequired;
  }

  /// A key and its ':', with the whitespace around them.
  bool Key(std::string_view* key) {
    SkipSpace();
    if (!String(key)) return false;
    SkipSpace();
    if (!Consume(':')) return false;
    SkipSpace();
    return true;
  }

  bool String(std::string_view* out) {
    if (!Consume('"')) return false;
    *out = ScanStringRun();
    return Consume('"');
  }

  /// An integral number as JsonValue::AsInt64 reads it. The tree path
  /// also runs ParseDouble on the token, which cannot fail on one that
  /// fits int64, so skipping it here changes no answer.
  bool Int64(int64_t* out) {
    bool integral = false;
    const std::string_view token = ScanNumber(&integral);
    if (token.empty() || !integral) return false;
    Result<int64_t> value = ParseInt64(token);
    if (!value.ok()) return false;
    *out = value.ValueOrDie();
    return true;
  }

  bool Binary(int64_t* out) { return Int64(out) && (*out == 0 || *out == 1); }

  bool Double(double* out) {
    bool integral = false;
    const std::string_view token = ScanNumber(&integral);
    if (token.empty()) return false;
    Result<double> value = ParseDouble(token);
    if (!value.ok()) return false;
    *out = value.ValueOrDie();
    return true;
  }

  std::vector<Event>* events_;
};

}  // namespace

bool DecodeIngestLine(std::string_view line, std::vector<Event>* events) {
  return IngestDecoder(line, events).Decode();
}

}  // namespace fairlaw::serve
