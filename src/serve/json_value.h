#ifndef FAIRLAW_SERVE_JSON_VALUE_H_
#define FAIRLAW_SERVE_JSON_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace fairlaw::serve {

/// Parsed JSON value for the serve request path. With the ingest
/// decoder (DecodeIngestLine, serve/api.h), which shares its scanners
/// (serve/json_scan.h), it is the one place in the tree that consumes
/// JSON (the writers all stream through base/json_writer.h); canonical
/// ingest lines skip it. Deliberately minimal: single-document parse,
/// no streaming, objects keep their keys in a sorted map (requests are
/// field-addressed, never iterated, so map order cannot leak into
/// responses). Strings support the escapes JsonEscape emits plus
/// \uXXXX for the Basic Multilingual Plane.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  /// Parses exactly one JSON document from `text`; trailing non-space
  /// content is an error (the serve protocol is one document per line).
  FAIRLAW_NODISCARD static Result<JsonValue> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; Invalid when the kind does not match.
  FAIRLAW_NODISCARD Result<bool> AsBool() const;
  FAIRLAW_NODISCARD Result<double> AsDouble() const;
  /// Numbers without a fraction/exponent that fit int64; Invalid
  /// otherwise (the protocol's timestamps and 0/1 fields come through
  /// here).
  FAIRLAW_NODISCARD Result<int64_t> AsInt64() const;
  FAIRLAW_NODISCARD Result<std::string> AsString() const;

  /// Object member access. Get: Invalid on non-objects, NotFound on a
  /// missing key. GetOrNull: null pointer when absent (optional fields).
  FAIRLAW_NODISCARD Result<const JsonValue*> Get(std::string_view key) const;
  const JsonValue* GetOrNull(std::string_view key) const;

  /// Array access.
  size_t size() const { return array_.size(); }
  const JsonValue& at(size_t index) const { return *array_[index]; }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool number_is_integral_ = false;
  int64_t integer_ = 0;
  std::string string_;
  std::map<std::string, std::unique_ptr<JsonValue>, std::less<>> object_;
  std::vector<std::unique_ptr<JsonValue>> array_;

  friend class JsonParser;
};

}  // namespace fairlaw::serve

#endif  // FAIRLAW_SERVE_JSON_VALUE_H_
