#ifndef FAIRLAW_SERVE_JSON_SCAN_H_
#define FAIRLAW_SERVE_JSON_SCAN_H_

#include <cstddef>
#include <string_view>

namespace fairlaw::serve {

/// A position in one JSON text plus the token scanners over it: the one
/// JSON grammar of the serve request path. JsonValue::Parse builds its
/// tree on it and DecodeIngestLine (serve/api.h) decodes ingest lines
/// with it, so the two cannot disagree on whitespace, on which string
/// bytes need decoding, or on what a number is.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

 protected:
  bool AtEnd() const { return pos_ >= text_.size(); }

  /// Skips JSON whitespace: space, tab, line feed, carriage return.
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  /// Advances over string bytes that are their own value and returns
  /// them. Stops at a closing quote, a backslash, a control byte (JSON
  /// forbids them unescaped) or the end of the text.
  std::string_view ScanStringRun() {
    const size_t start = pos_;
    while (pos_ < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  /// Scans one number token by the JSON grammar: an optional '-', an
  /// integer part that is '0' or starts with 1-9, then an optional
  /// fraction and an optional exponent. Sets `*integral` when it has
  /// neither. Returns an empty view when the text here is no number.
  std::string_view ScanNumber(bool* integral) {
    const size_t start = pos_;
    *integral = true;
    Consume('-');
    if (!Consume('0')) {
      if (!AtDigit()) return {};
      SkipDigits();
    }
    if (Consume('.')) {
      *integral = false;
      if (!AtDigit()) return {};
      SkipDigits();
    }
    if (Consume('e') || Consume('E')) {
      *integral = false;
      if (!Consume('+')) Consume('-');
      if (!AtDigit()) return {};
      SkipDigits();
    }
    return text_.substr(start, pos_ - start);
  }

  std::string_view text_;
  size_t pos_ = 0;

 private:
  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void SkipDigits() {
    while (AtDigit()) ++pos_;
  }
};

}  // namespace fairlaw::serve

#endif  // FAIRLAW_SERVE_JSON_SCAN_H_
