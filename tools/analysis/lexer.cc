#include "tools/analysis/lexer.h"

namespace fairlaw::analysis {
namespace {

// ASCII classification without the locale lookups of <cctype>: source
// text is lexed byte by byte, so these sit on the hottest path.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

/// True when `c` can begin a multi-character punctuator; any other
/// punctuation character is a token on its own.
bool StartsLongPunct(char c) {
  for (const char first : std::string_view("<>.-:#&|+*/%=!^")) {
    if (c == first) return true;
  }
  return false;
}

/// Character scanner that performs translation-phase-2 line splicing
/// (backslash-newline disappears) transparently, while keeping an exact
/// 1-based line count. Raw string bodies bypass it (the standard
/// reverts splicing there) by indexing the source directly.
class Scanner {
 public:
  explicit Scanner(std::string_view source) : src_(source) {}

  /// Current character after splices, '\0' at end of input.
  char Cur() {
    SkipSplices();
    return i_ < src_.size() ? src_[i_] : '\0';
  }

  /// Character after Cur(), again splice-aware.
  char Next() {
    SkipSplices();
    const size_t save_i = i_;
    const size_t save_line = line_;
    Bump();
    const char c = Cur();
    i_ = save_i;
    line_ = save_line;
    return c;
  }

  /// Up to `n` upcoming spliced characters, for punctuator matching.
  std::string PeekString(size_t n) {
    const size_t save_i = i_;
    const size_t save_line = line_;
    std::string out;
    for (size_t k = 0; k < n; ++k) {
      const char c = Cur();
      if (c == '\0') break;
      out.push_back(c);
      Bump();
    }
    i_ = save_i;
    line_ = save_line;
    return out;
  }

  /// Appends characters to `out` up to the first for which `stop` holds
  /// (or the end of input). Same result as a Cur()/Bump() loop, but
  /// copies each splice-free run in one piece.
  template <typename Stop>
  void TakeUntil(Stop stop, std::string* out) {
    while (true) {
      SkipSplices();
      size_t j = i_;
      while (j < src_.size() && src_[j] != '\\' && src_[j] != '\n' &&
             !stop(src_[j])) {
        ++j;
      }
      out->append(src_.substr(i_, j - i_));
      i_ = j;
      SkipSplices();
      if (i_ != j) continue;  // skipped a splice
      const char c = Cur();
      if (i_ >= src_.size() || stop(c)) return;
      out->push_back(c);  // a newline or a lone backslash
      Bump();
    }
  }

  /// Consumes the current spliced character.
  void Bump() {
    SkipSplices();
    if (i_ >= src_.size()) return;
    if (src_[i_] == '\n') ++line_;
    ++i_;
  }

  bool AtEnd() {
    SkipSplices();
    return i_ >= src_.size();
  }

  size_t line() const { return line_; }

  // Raw access for raw-string bodies (no splicing, manual line count).
  size_t raw_pos() const { return i_; }
  void set_raw_pos(size_t i) { i_ = i; }
  void add_lines(size_t n) { line_ += n; }
  std::string_view source() const { return src_; }

 private:
  /// Skips every backslash-newline (optionally backslash-CR-LF) splice
  /// at the current position.
  void SkipSplices() {
    while (i_ + 1 < src_.size() && src_[i_] == '\\') {
      size_t j = i_ + 1;
      if (src_[j] == '\r' && j + 1 < src_.size()) ++j;
      if (src_[j] != '\n') return;
      i_ = j + 1;
      ++line_;
    }
  }

  std::string_view src_;
  size_t i_ = 0;
  size_t line_ = 1;
};

/// Punctuators, longest first so maximal munch falls out of the scan
/// order. Digraphs are deliberately absent.
constexpr std::string_view kPuncts[] = {
    "<<=", ">>=", "...", "->*", "<=>",                       // length 3
    "::", "->", "##", "<<", ">>", "<=", ">=", "==", "!=",    // length 2
    "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=",    //
    "&=", "|=", "^=", ".*",                                  //
};

bool IsStringPrefix(std::string_view ident) {
  return ident == "u8" || ident == "u" || ident == "U" || ident == "L";
}

bool IsRawStringPrefix(std::string_view ident) {
  return ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" ||
         ident == "LR";
}

}  // namespace

LexResult Lex(std::string_view source) {
  LexResult out;
  Scanner s(source);

  // Lexes a quoted literal body (escape-aware) into `text`; `quote` is
  // '"' or '\''. A bare newline terminates the token so a broken file
  // cannot swallow the rest of the scan. The opening quote has been
  // consumed; consumes through the closing quote.
  auto lex_quoted = [&s](char quote, std::string* text) {
    while (true) {
      const char c = s.Cur();
      if (c == '\0' || c == '\n' || c == quote) {
        if (c == quote) s.Bump();
        return;
      }
      if (c == '\\') {  // escape: keep both characters verbatim
        text->push_back(c);
        s.Bump();
        const char escaped = s.Cur();
        if (escaped == '\0' || escaped == '\n') return;
        text->push_back(escaped);
        s.Bump();
        continue;
      }
      text->push_back(c);
      s.Bump();
    }
  };

  // Raw string body: R"delim( ... )delim". The opening quote has been
  // consumed. No splicing applies, so this walks the source directly.
  auto lex_raw_string = [&s](std::string* text) {
    std::string_view src = s.source();
    size_t i = s.raw_pos();
    std::string delim;
    while (i < src.size() && src[i] != '(' && src[i] != '\n') {
      delim.push_back(src[i++]);
    }
    if (i < src.size() && src[i] == '(') ++i;  // past '('
    const std::string closer = ")" + delim + "\"";
    size_t lines = 0;
    while (i < src.size() && src.compare(i, closer.size(), closer) != 0) {
      if (src[i] == '\n') ++lines;
      text->push_back(src[i++]);
    }
    if (i < src.size()) i += closer.size();  // past )delim"
    s.set_raw_pos(i);
    s.add_lines(lines);
  };

  out.tokens.reserve(source.size() / 6);
  while (!s.AtEnd()) {
    const char c = s.Cur();
    const size_t line = s.line();

    if (IsSpace(c)) {
      s.Bump();
      continue;
    }

    // Comments. A line comment whose last character is a backslash
    // splices onto the next line; Scanner handles that transparently,
    // so the 'ends at newline' test below is already splice-correct.
    if (c == '/' && s.Next() == '/') {
      s.Bump();
      s.Bump();
      Comment comment;
      comment.line = line;
      s.TakeUntil([](char d) { return d == '\0' || d == '\n'; },
                  &comment.text);
      comment.end_line = s.line();
      out.comments.push_back(std::move(comment));
      continue;
    }
    if (c == '/' && s.Next() == '*') {
      s.Bump();
      s.Bump();
      Comment comment;
      comment.line = line;
      while (true) {
        s.TakeUntil([](char d) { return d == '\0' || d == '*'; },
                    &comment.text);
        if (s.Cur() == '\0' || s.Next() == '/') break;
        comment.text.push_back('*');
        s.Bump();
      }
      if (s.Cur() != '\0') {
        s.Bump();
        s.Bump();
      }
      comment.end_line = s.line();
      out.comments.push_back(std::move(comment));
      continue;
    }

    // Identifier, possibly a literal prefix (R"..., u8"..., L'...).
    if (IsIdentStart(c)) {
      std::string ident;
      s.TakeUntil([](char d) { return !IsIdentChar(d); }, &ident);
      if (s.Cur() == '"' && IsRawStringPrefix(ident)) {
        s.Bump();  // opening quote
        Token token{TokenKind::kString, "", line};
        lex_raw_string(&token.text);
        out.tokens.push_back(std::move(token));
        continue;
      }
      if (s.Cur() == '"' && IsStringPrefix(ident)) {
        s.Bump();
        Token token{TokenKind::kString, "", line};
        lex_quoted('"', &token.text);
        out.tokens.push_back(std::move(token));
        continue;
      }
      if (s.Cur() == '\'' && IsStringPrefix(ident)) {
        s.Bump();
        Token token{TokenKind::kCharLiteral, "", line};
        lex_quoted('\'', &token.text);
        out.tokens.push_back(std::move(token));
        continue;
      }
      out.tokens.push_back(Token{TokenKind::kIdentifier, std::move(ident),
                                 line});
      continue;
    }

    // pp-number: starts with a digit or dot-digit; consumes identifier
    // characters, digit separators, dots, and signed exponents.
    if (IsDigit(c) || (c == '.' && IsDigit(s.Next()))) {
      std::string number;
      while (true) {
        const char d = s.Cur();
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          number.push_back(d);
          s.Bump();
          const char sign = s.Cur();
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') &&
              (sign == '+' || sign == '-')) {
            number.push_back(sign);
            s.Bump();
          }
          continue;
        }
        break;
      }
      out.tokens.push_back(Token{TokenKind::kNumber, std::move(number), line});
      continue;
    }

    // Plain literals.
    if (c == '"') {
      s.Bump();
      Token token{TokenKind::kString, "", line};
      lex_quoted('"', &token.text);
      out.tokens.push_back(std::move(token));
      continue;
    }
    if (c == '\'') {
      s.Bump();
      Token token{TokenKind::kCharLiteral, "", line};
      lex_quoted('\'', &token.text);
      out.tokens.push_back(std::move(token));
      continue;
    }

    // Punctuator by longest match; anything unrecognized becomes a
    // single-character punctuator so the scan always advances.
    if (!StartsLongPunct(c)) {
      out.tokens.push_back(Token{TokenKind::kPunct, std::string(1, c), line});
      s.Bump();
      continue;
    }
    const std::string window = s.PeekString(3);
    std::string_view matched;
    for (const std::string_view punct : kPuncts) {
      if (window.size() >= punct.size() &&
          std::string_view(window).substr(0, punct.size()) == punct) {
        matched = punct;
        break;
      }
    }
    const size_t punct_size = matched.empty() ? 1 : matched.size();
    Token token{TokenKind::kPunct, window.substr(0, punct_size), line};
    out.tokens.push_back(std::move(token));
    for (size_t k = 0; k < punct_size; ++k) s.Bump();
  }

  out.tokens.push_back(Token{TokenKind::kEndOfFile, "", s.line()});
  return out;
}

bool TokenSeqAt(std::span<const Token> tokens, size_t at,
                std::initializer_list<std::string_view> seq) {
  size_t i = at;
  for (const std::string_view want : seq) {
    if (i >= tokens.size()) return false;
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kIdentifier &&
        token.kind != TokenKind::kPunct &&
        token.kind != TokenKind::kNumber) {
      return false;
    }
    if (token.text != want) return false;
    ++i;
  }
  return true;
}

size_t MatchingClose(std::span<const Token> tokens, size_t open_index) {
  int depth = 0;
  for (size_t i = open_index; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kPunct) continue;
    if (token.text == "(" || token.text == "[" || token.text == "{") {
      ++depth;
    } else if (token.text == ")" || token.text == "]" || token.text == "}") {
      if (--depth == 0) return i;
    }
  }
  return tokens.size();
}

bool HasMarkerOnOrAbove(const std::vector<Comment>& comments,
                        std::string_view marker, size_t line) {
  for (const Comment& comment : comments) {
    if (comment.line > line) break;  // comments are in source order
    const bool covers = comment.line <= line && comment.end_line + 1 >= line;
    if (covers && comment.text.find(marker) != std::string::npos) return true;
  }
  return false;
}

}  // namespace fairlaw::analysis
