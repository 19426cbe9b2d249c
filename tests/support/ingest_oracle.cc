#include "support/ingest_oracle.h"

#include <bit>
#include <cstdint>
#include <utility>

#include "serve/json_value.h"

namespace fairlaw::serve {

Result<std::vector<Event>> OracleIngestEvents(std::string_view line) {
  FAIRLAW_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  FAIRLAW_ASSIGN_OR_RETURN(Request request, ParseRequest(doc, ServeConfig{}));
  if (request.op != Request::Op::kIngest) {
    return Status::Invalid("oracle: not an ingest request");
  }
  return std::move(request.ingest.events);
}

bool SameEvents(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Event& x = a[i];
    const Event& y = b[i];
    if (x.t != y.t || x.group != y.group || x.pred != y.pred ||
        x.label != y.label || x.has_label != y.has_label ||
        std::bit_cast<uint64_t>(x.score) != std::bit_cast<uint64_t>(y.score) ||
        x.has_score != y.has_score || x.stratum != y.stratum ||
        x.has_stratum != y.has_stratum) {
      return false;
    }
  }
  return true;
}

std::string DecoderDisagreement(std::string_view line) {
  std::vector<Event> decoded;
  if (!DecodeIngestLine(line, &decoded)) return "";
  Result<std::vector<Event>> oracle = OracleIngestEvents(line);
  if (!oracle.ok()) {
    return "decoder accepted a line the tree path refuses: " +
           oracle.status().ToString();
  }
  if (!SameEvents(decoded, *oracle)) {
    return "decoder events differ from the tree path's (" +
           std::to_string(decoded.size()) + " vs " +
           std::to_string(oracle->size()) + " events)";
  }
  return "";
}

std::string WithTreeOnlyKey(std::string_view line) {
  const size_t brace = line.find('{');
  if (brace == std::string_view::npos) return std::string(line);
  return std::string(line.substr(0, brace + 1)) + "\"~tree\":0," +
         std::string(line.substr(brace + 1));
}

}  // namespace fairlaw::serve
