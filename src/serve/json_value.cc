#include "serve/json_value.h"

#include <cmath>
#include <utility>

#include "base/string_util.h"
#include "serve/json_scan.h"

namespace fairlaw::serve {

/// Recursive-descent parser over a string_view, on the shared token
/// scanners of JsonCursor. Numbers are validated against the JSON
/// grammar there and then converted by fairlaw::ParseDouble
/// (std::from_chars underneath), so no locale or banned C parsing
/// function is involved.
class JsonParser : private JsonCursor {
 public:
  explicit JsonParser(std::string_view text) : JsonCursor(text) {}

  Result<JsonValue> ParseDocument() {
    SkipSpace();
    JsonValue value;
    FAIRLAW_RETURN_NOT_OK(ParseValue(&value, /*depth=*/0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::Invalid("json: trailing content at offset " +
                             std::to_string(pos_));
    }
    return value;
  }

 private:
  // Request documents are shallow; a depth cap turns pathological
  // nesting into an error instead of a stack overflow.
  static constexpr int kMaxDepth = 32;

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Status::Invalid("json: nesting deeper than " +
                             std::to_string(kMaxDepth));
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::Invalid("json: unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind_ = JsonValue::Kind::kString;
      return ParseString(&out->string_);
    }
    if (c == 't' || c == 'f') {
      out->kind_ = JsonValue::Kind::kBool;
      if (ConsumeWord("true")) {
        out->bool_ = true;
        return Status::OK();
      }
      if (ConsumeWord("false")) {
        out->bool_ = false;
        return Status::OK();
      }
      return Status::Invalid("json: bad literal at offset " +
                             std::to_string(pos_));
    }
    if (c == 'n') {
      if (ConsumeWord("null")) {
        out->kind_ = JsonValue::Kind::kNull;
        return Status::OK();
      }
      return Status::Invalid("json: bad literal at offset " +
                             std::to_string(pos_));
    }
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Status::Invalid("json: unexpected character '" +
                           std::string(1, c) + "' at offset " +
                           std::to_string(pos_));
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::Invalid("json: expected object key at offset " +
                               std::to_string(pos_));
      }
      std::string key;
      FAIRLAW_RETURN_NOT_OK(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) {
        return Status::Invalid("json: expected ':' at offset " +
                               std::to_string(pos_));
      }
      auto value = std::make_unique<JsonValue>();
      FAIRLAW_RETURN_NOT_OK(ParseValue(value.get(), depth + 1));
      if (!out->object_.insert_or_assign(std::move(key), std::move(value))
               .second) {
        // Duplicate keys: last one wins, matching common parsers; the
        // request validators never rely on duplicates.
      }
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Status::Invalid("json: expected ',' or '}' at offset " +
                             std::to_string(pos_));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      auto value = std::make_unique<JsonValue>();
      FAIRLAW_RETURN_NOT_OK(ParseValue(value.get(), depth + 1));
      out->array_.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Status::Invalid("json: expected ',' or ']' at offset " +
                             std::to_string(pos_));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      out->append(ScanStringRun());
      if (AtEnd()) break;
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c != '\\') {
        return Status::Invalid("json: unescaped control character in string");
      }
      ++pos_;
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_];
      ++pos_;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          FAIRLAW_RETURN_NOT_OK(AppendUnicodeEscape(out));
          break;
        }
        default:
          return Status::Invalid("json: bad escape '\\" +
                                 std::string(1, e) + "'");
      }
    }
    return Status::Invalid("json: unterminated string");
  }

  Status AppendUnicodeEscape(std::string* out) {
    if (pos_ + 4 > text_.size()) {
      return Status::Invalid("json: truncated \\u escape");
    }
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + i];
      uint32_t digit;
      if (h >= '0' && h <= '9') {
        digit = static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Status::Invalid("json: bad \\u escape digit");
      }
      code = code * 16 + digit;
    }
    pos_ += 4;
    if (code >= 0xD800 && code <= 0xDFFF) {
      return Status::Invalid("json: surrogate \\u escapes not supported");
    }
    // UTF-8 encode the BMP code point.
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    bool integral = false;
    const std::string_view token = ScanNumber(&integral);
    if (token.empty()) {
      return Status::Invalid("json: bad number at offset " +
                             std::to_string(start));
    }
    out->kind_ = JsonValue::Kind::kNumber;
    FAIRLAW_ASSIGN_OR_RETURN(out->number_, ParseDouble(token));
    out->number_is_integral_ = integral;
    if (integral) {
      Result<int64_t> as_int = ParseInt64(token);
      if (as_int.ok()) {
        out->integer_ = as_int.ValueOrDie();
      } else {
        out->number_is_integral_ = false;  // out of int64 range
      }
    }
    return Status::OK();
  }
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

Result<bool> JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) return Status::Invalid("json: expected bool");
  return bool_;
}

Result<double> JsonValue::AsDouble() const {
  if (kind_ != Kind::kNumber) return Status::Invalid("json: expected number");
  return number_;
}

Result<int64_t> JsonValue::AsInt64() const {
  if (kind_ != Kind::kNumber || !number_is_integral_) {
    return Status::Invalid("json: expected integer");
  }
  return integer_;
}

Result<std::string> JsonValue::AsString() const {
  if (kind_ != Kind::kString) return Status::Invalid("json: expected string");
  return string_;
}

Result<const JsonValue*> JsonValue::Get(std::string_view key) const {
  if (kind_ != Kind::kObject) return Status::Invalid("json: expected object");
  auto it = object_.find(key);
  if (it == object_.end()) {
    return Status::NotFound("json: missing field '" + std::string(key) + "'");
  }
  return it->second.get();
}

const JsonValue* JsonValue::GetOrNull(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : it->second.get();
}

}  // namespace fairlaw::serve
