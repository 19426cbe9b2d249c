#ifndef FAIRLAW_TOOLS_ANALYSIS_LEXER_H_
#define FAIRLAW_TOOLS_ANALYSIS_LEXER_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// fairlaw::analysis — the token substrate every fairlaw_check rule
/// reads.
///
/// The original analyzers scanned a comment/string-blanked copy of each
/// file, which misread two constructs the real compiler handles in
/// translation phase 2/3: raw string literals with embedded quotes, and
/// line comments continued by a backslash-newline splice. Lexing the
/// file into real tokens removes that whole class of false positives:
/// rule code only ever looks at identifier/punctuator tokens, and
/// literal/comment text is carried separately for the rules that need
/// it (empty-message checks, escape-hatch markers).
///
/// This is a single-file scanner, not a preprocessor: macros are not
/// expanded, #include targets are not followed, and digraphs/trigraphs
/// are not translated (the codebase bans them by convention). Handled
/// faithfully:
///
///   * line splices (backslash-newline, with optional \r) everywhere
///     except raw string bodies, where the standard reverts them;
///   * // and /* */ comments, including splice-continued line comments;
///   * string/char literals with escape sequences and the u8/u/U/L
///     prefixes; adjacent literals stay separate tokens;
///   * raw strings R"delim( ... )delim" with arbitrary delimiters;
///   * pp-numbers (hex, digit separators, exponents with signs);
///   * punctuators by longest match (<<=, <=>, ->*, ..., etc.).
///
/// Every token records the 1-based source line of its first character,
/// so diagnostics point at real positions even across splices.
namespace fairlaw::analysis {

enum class TokenKind : uint8_t {
  kIdentifier,   // keywords are identifiers; the rules match by text
  kNumber,       // pp-number spelling, e.g. "0x1p-3", "1'000'000"
  kString,       // text holds the *contents* (quotes/prefix stripped)
  kCharLiteral,  // text holds the contents
  kPunct,        // text holds the spelling, e.g. "::", "<=>", "{"
  kEndOfFile,    // sentinel; always the last token
};

struct Token {
  TokenKind kind = TokenKind::kEndOfFile;
  std::string text;
  size_t line = 0;  // 1-based line of the token's first character

  bool IsIdent(std::string_view spelling) const {
    return kind == TokenKind::kIdentifier && text == spelling;
  }
  bool IsPunct(std::string_view spelling) const {
    return kind == TokenKind::kPunct && text == spelling;
  }
};

/// A comment's text (delimiters stripped) and the source lines it
/// covers. Escape-hatch markers (`lint: allow-...`, `detcheck:
/// allow-...`) live in comments, so the rules search these instead of
/// re-reading the raw file.
struct Comment {
  std::string text;
  size_t line = 0;      // first line
  size_t end_line = 0;  // last line (multi-line block or spliced comment)
};

struct LexResult {
  std::vector<Token> tokens;  // terminated by a kEndOfFile token
  std::vector<Comment> comments;
};

/// Tokenizes `source`. Never fails: unterminated literals end at the
/// next newline (or end of file for raw strings/block comments), which
/// keeps the rules robust on files that do not compile.
LexResult Lex(std::string_view source);

/// True when the token at `at` begins the exact identifier/punctuator
/// spelling sequence `seq` (e.g. {"std", "::", "vector", "<", "bool"}).
/// String/char/number tokens never match, so literal text cannot fake a
/// code pattern.
bool TokenSeqAt(std::span<const Token> tokens, size_t at,
                std::initializer_list<std::string_view> seq);

/// Index of the punctuator that closes the opener at `open_index`
/// (one of "(", "[", "{"), honoring nesting of all three bracket
/// kinds. Returns tokens.size() when unbalanced.
size_t MatchingClose(std::span<const Token> tokens, size_t open_index);

/// True when some comment covering `line` or `line - 1` contains
/// `marker`. This is the escape-hatch convention shared by the rules:
/// the marker sits on the flagged line or the line above it.
bool HasMarkerOnOrAbove(const std::vector<Comment>& comments,
                        std::string_view marker, size_t line);

}  // namespace fairlaw::analysis

#endif  // FAIRLAW_TOOLS_ANALYSIS_LEXER_H_
