#ifndef FAIRLAW_TESTS_SUPPORT_INGEST_ORACLE_H_
#define FAIRLAW_TESTS_SUPPORT_INGEST_ORACLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "serve/api.h"

namespace fairlaw::serve {

/// The tree path's reading of an ingest line: the events of
/// ParseRequest(JsonValue::Parse(line)), or the status that path fails
/// with (also when the line parses as some other op).
FAIRLAW_NODISCARD Result<std::vector<Event>> OracleIngestEvents(
    std::string_view line);

/// Field-for-field event equality, with scores compared bitwise.
bool SameEvents(const std::vector<Event>& a, const std::vector<Event>& b);

/// Checks DecodeIngestLine against the oracle on one line. Empty when
/// they agree: the decoder declines, or it accepts a line the oracle
/// reads as the same events. Otherwise says how they differ.
std::string DecoderDisagreement(std::string_view line);

/// A line DecodeIngestLine accepts, with an unknown key in front of its
/// first top-level key. The tree path ignores the key and the decoder
/// declines it, so the result is the same request answered through
/// JsonValue::Parse + ParseRequest.
std::string WithTreeOnlyKey(std::string_view line);

}  // namespace fairlaw::serve

#endif  // FAIRLAW_TESTS_SUPPORT_INGEST_ORACLE_H_
