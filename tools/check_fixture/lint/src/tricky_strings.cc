// Clean fixture for the lexer-backed lint rules: every banned
// identifier below lives inside a string literal or a comment, so no
// lint rule may fire on this tree. The string-blanking scanner that
// preceded the lexer false-positived on both constructs:
//
//   * a raw string with an embedded quote flipped the old scanner's
//     in-string state, so literal text after the embedded quote was
//     scanned as code;
//   * a line comment ending in a backslash continues onto the next
//     line (translation phase 2 splices the newline), but the old
//     scanner ended the comment at the newline and scanned the
//     continuation as code.

namespace fairlaw_fixture {

// Raw string with embedded quotes: "steady_clock" and "rand" sit
// between quote characters the old scanner misread as string ends.
const char* kRawDoc =
    R"(prefer "steady_clock" via obs and never call "rand" or "srand")";

// Comment continued by a backslash-newline; everything on the next  \
   line is still comment: rand() srand() steady_clock this_thread \
   std::vector<bool> atoi strtod

// Raw string with a custom delimiter containing a plain )" sequence.
const char* kDelimited = R"doc(text with )" inside, plus atoi and rand)doc";

const char* Doc() { return kRawDoc; }
const char* Delimited() { return kDelimited; }

}  // namespace fairlaw_fixture
