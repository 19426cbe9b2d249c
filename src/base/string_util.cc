#include "base/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace fairlaw {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

namespace {

/// The C locale's isspace set (space, \t, \n, \v, \f, \r) without a
/// locale lookup per byte.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// True if `text` equals the lowercase ASCII word `lower`, ignoring case.
bool EqualsIgnoreCase(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) return false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if ((c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c) != lower[i]) return false;
  }
  return true;
}

}  // namespace

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsAsciiSpace(text[begin])) ++begin;
  size_t end = text.size();
  while (end > begin && IsAsciiSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Result<double> ParseDouble(std::string_view text) {
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) {
    return Status::Invalid("cannot parse empty string as double");
  }
  double value = 0.0;
  const char* first = stripped.data();
  const char* last = stripped.data() + stripped.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    return Status::Invalid("cannot parse '" + std::string(stripped) +
                           "' as double");
  }
  return value;
}

Result<int64_t> ParseInt64(std::string_view text) {
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) {
    return Status::Invalid("cannot parse empty string as int64");
  }
  int64_t value = 0;
  const char* first = stripped.data();
  const char* last = stripped.data() + stripped.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    return Status::Invalid("cannot parse '" + std::string(stripped) +
                           "' as int64");
  }
  return value;
}

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

Result<bool> ParseBool(std::string_view text) {
  const std::string_view stripped = StripWhitespace(text);
  if (stripped == "1" || EqualsIgnoreCase(stripped, "true")) return true;
  if (stripped == "0" || EqualsIgnoreCase(stripped, "false")) return false;
  return Status::Invalid("cannot parse '" + std::string(text) + "' as bool");
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace fairlaw
