// Unit tests for the shared analysis lexer (tools/analysis/lexer.h):
// the token substrate every fairlaw_check rule reads. The
// cases concentrate on the constructs that broke the old string-blanked
// scanner — raw strings with embedded quotes, splice-continued line
// comments — plus the lookup helpers the rule code leans on.
#include "tools/analysis/lexer.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace fairlaw::analysis {
namespace {

std::vector<Token> CodeTokens(std::string_view source) {
  std::vector<Token> out;
  for (const Token& token : Lex(source).tokens) {
    if (token.kind != TokenKind::kEndOfFile) out.push_back(token);
  }
  return out;
}

TEST(LexerTest, IdentifiersNumbersAndPunctuators) {
  const std::vector<Token> tokens = CodeTokens("int x = 0x1f + 1'000;");
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_TRUE(tokens[0].IsIdent("int"));
  EXPECT_TRUE(tokens[1].IsIdent("x"));
  EXPECT_TRUE(tokens[2].IsPunct("="));
  EXPECT_EQ(tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[3].text, "0x1f");
  EXPECT_TRUE(tokens[4].IsPunct("+"));
  EXPECT_EQ(tokens[5].text, "1'000");
  EXPECT_TRUE(tokens[6].IsPunct(";"));
}

TEST(LexerTest, LongestMatchPunctuators) {
  const std::vector<Token> tokens =
      CodeTokens("a<<=b; c<=>d; e->*f; g...h; x::y;");
  std::vector<std::string> puncts;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kPunct) puncts.push_back(token.text);
  }
  const std::vector<std::string> expected = {"<<=", ";", "<=>", ";", "->*",
                                             ";",   "...", ";", "::", ";"};
  EXPECT_EQ(puncts, expected);
}

TEST(LexerTest, ClosingAngleBracketsStayOneToken) {
  // The lexer is template-blind by design: >> lexes as one shift token
  // and the rule code counts it as two closers (see UnorderedNames).
  const std::vector<Token> tokens = CodeTokens("map<int, vector<int>> m;");
  bool saw_shift = false;
  for (const Token& token : tokens) saw_shift |= token.IsPunct(">>");
  EXPECT_TRUE(saw_shift);
}

TEST(LexerTest, StringContentsAreNotCode) {
  const std::vector<Token> tokens =
      CodeTokens("log(\"call rand() and srand()\");");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_TRUE(tokens[0].IsIdent("log"));
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, "call rand() and srand()");
  // No identifier token spells the banned names.
  for (const Token& token : tokens) {
    EXPECT_FALSE(token.IsIdent("rand"));
    EXPECT_FALSE(token.IsIdent("srand"));
  }
}

TEST(LexerTest, EscapedQuoteDoesNotEndString) {
  const std::vector<Token> tokens = CodeTokens(R"(s = "a\"b"; t = 'c';)");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, "a\\\"b");  // contents kept verbatim
  bool saw_char = false;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kCharLiteral) {
      saw_char = true;
      EXPECT_EQ(token.text, "c");
    }
  }
  EXPECT_TRUE(saw_char);
}

TEST(LexerTest, RawStringWithEmbeddedQuotesAndDelimiter) {
  // The construct that false-positived the old scanner: an embedded
  // closing quote flips naive in-string tracking, after which real code
  // looks like string text and vice versa.
  const std::string source =
      "auto s = R\"(prefer \"steady_clock\" via obs)\";\n"
      "auto t = R\"doc(text with )\" inside, plus rand)doc\";\n"
      "int after = 1;\n";
  const std::vector<Token> tokens = CodeTokens(source);
  size_t strings = 0;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kString) {
      ++strings;
      EXPECT_TRUE(token.text.find("steady_clock") != std::string::npos ||
                  token.text.find("plus rand") != std::string::npos);
    }
    EXPECT_FALSE(token.IsIdent("steady_clock"));
    EXPECT_FALSE(token.IsIdent("rand"));
  }
  EXPECT_EQ(strings, 2u);
  // Code resumes cleanly after each raw string.
  EXPECT_TRUE(tokens.back().IsPunct(";"));
  bool saw_after = false;
  for (const Token& token : tokens) saw_after |= token.IsIdent("after");
  EXPECT_TRUE(saw_after);
}

TEST(LexerTest, StringPrefixesLexAsStrings) {
  const std::vector<Token> tokens =
      CodeTokens("a(u8\"x\"); b(L\"y\"); c(U\"z\"); d(u\"w\");");
  size_t strings = 0;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kString) ++strings;
  }
  EXPECT_EQ(strings, 4u);
}

TEST(LexerTest, LineSpliceContinuesLineComment) {
  // A backslash-newline extends a // comment onto the next physical
  // line; `rand();` below it is commented out, not code.
  const std::string source =
      "int x = 1;\n"
      "// banned here: \\\n"
      "rand();\n"
      "int y = 2;\n";
  const LexResult lex = Lex(source);
  for (const Token& token : lex.tokens) {
    EXPECT_FALSE(token.IsIdent("rand"));
  }
  ASSERT_EQ(lex.comments.size(), 1u);
  EXPECT_EQ(lex.comments[0].line, 2u);
  EXPECT_EQ(lex.comments[0].end_line, 3u);
  // Line numbers stay physical across the splice.
  bool saw_y = false;
  for (const Token& token : lex.tokens) {
    if (token.IsIdent("y")) {
      saw_y = true;
      EXPECT_EQ(token.line, 4u);
    }
  }
  EXPECT_TRUE(saw_y);
}

TEST(LexerTest, SpliceInsideIdentifierJoinsIt) {
  const std::vector<Token> tokens = CodeTokens("int ste\\\nady = 0;");
  bool joined = false;
  for (const Token& token : tokens) joined |= token.IsIdent("steady");
  EXPECT_TRUE(joined);
}

TEST(LexerTest, SpliceRevertedInsideRawString) {
  // Phase 2 splices are undone inside raw string bodies: the backslash
  // and newline are literal content, and lexing continues correctly.
  const std::string source = "auto s = R\"(a\\\nb)\"; int tail = 3;\n";
  const std::vector<Token> tokens = CodeTokens(source);
  bool saw_string = false;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kString) {
      saw_string = true;
      EXPECT_EQ(token.text, "a\\\nb");
    }
  }
  EXPECT_TRUE(saw_string);
  bool saw_tail = false;
  for (const Token& token : tokens) saw_tail |= token.IsIdent("tail");
  EXPECT_TRUE(saw_tail);
}

TEST(LexerTest, MultiLineBlockCommentTracksLines) {
  const std::string source =
      "int a = 1;\n"
      "/* spans\n"
      "   three\n"
      "   lines */ int b = 2;\n";
  const LexResult lex = Lex(source);
  ASSERT_EQ(lex.comments.size(), 1u);
  EXPECT_EQ(lex.comments[0].line, 2u);
  EXPECT_EQ(lex.comments[0].end_line, 4u);
  for (const Token& token : lex.tokens) {
    if (token.IsIdent("b")) {
      EXPECT_EQ(token.line, 4u);
    }
  }
}

TEST(LexerTest, CommentTextKeepsStarsBackslashesAndSplices) {
  // Comment bodies are copied a run at a time; the characters that end
  // a run (a lone '*', a backslash that is not a splice, a splice) must
  // come out exactly as a character-at-a-time scan would produce them.
  const std::string source =
      "/* a * b \\ c \\\nd **/ int x;\n"
      "// tail \\ still\n"
      "int y;\n";
  const LexResult lex = Lex(source);
  ASSERT_EQ(lex.comments.size(), 2u);
  EXPECT_EQ(lex.comments[0].text, " a * b \\ c d *");
  EXPECT_EQ(lex.comments[0].end_line, 2u);
  EXPECT_EQ(lex.comments[1].text, " tail \\ still");
  EXPECT_EQ(lex.comments[1].line, 3u);
  for (const Token& token : lex.tokens) {
    if (token.IsIdent("x")) {
      EXPECT_EQ(token.line, 2u);
    }
    if (token.IsIdent("y")) {
      EXPECT_EQ(token.line, 4u);
    }
  }
}

TEST(LexerTest, UnterminatedStringEndsAtNewline) {
  // Never-fails contract: a broken literal must not swallow the rest of
  // the file.
  const std::vector<Token> tokens = CodeTokens("auto s = \"oops;\nint z = 1;");
  bool saw_z = false;
  for (const Token& token : tokens) saw_z |= token.IsIdent("z");
  EXPECT_TRUE(saw_z);
}

TEST(LexerTest, TokenSeqAtMatchesCodeOnly) {
  const LexResult lex = Lex("std::vector<bool> flags;");
  const std::span<const Token> tokens(lex.tokens);
  EXPECT_TRUE(TokenSeqAt(tokens, 0, {"std", "::", "vector", "<", "bool"}));
  EXPECT_FALSE(TokenSeqAt(tokens, 1, {"std", "::"}));

  const LexResult quoted = Lex("f(\"std\");");
  EXPECT_FALSE(TokenSeqAt(std::span<const Token>(quoted.tokens), 2, {"std"}));
}

TEST(LexerTest, MatchingCloseHonorsNesting) {
  const LexResult lex = Lex("f(a[1], g(2, {3}));");
  const std::span<const Token> tokens(lex.tokens);
  ASSERT_TRUE(tokens[1].IsPunct("("));
  const size_t close = MatchingClose(tokens, 1);
  ASSERT_LT(close, tokens.size());
  EXPECT_TRUE(tokens[close].IsPunct(")"));
  EXPECT_TRUE(tokens[close + 1].IsPunct(";"));

  const LexResult broken = Lex("f(a");
  EXPECT_EQ(MatchingClose(std::span<const Token>(broken.tokens), 1),
            broken.tokens.size());
}

TEST(LexerTest, MarkerOnLineOrLineAbove) {
  const std::string source =
      "int a = 1;  // detcheck: allow-entropy\n"
      "// detcheck: allow-merge-order\n"
      "int b = 2;\n"
      "int c = 3;\n";
  const LexResult lex = Lex(source);
  EXPECT_TRUE(HasMarkerOnOrAbove(lex.comments, "detcheck: allow-entropy", 1));
  EXPECT_TRUE(
      HasMarkerOnOrAbove(lex.comments, "detcheck: allow-merge-order", 3));
  EXPECT_FALSE(
      HasMarkerOnOrAbove(lex.comments, "detcheck: allow-merge-order", 4));
  EXPECT_FALSE(HasMarkerOnOrAbove(lex.comments, "detcheck: allow-entropy", 3));
}

TEST(LexerTest, EveryStreamEndsWithEof) {
  for (const std::string_view source :
       {std::string_view(""), std::string_view("// only a comment\n"),
        std::string_view("int x;")}) {
    const LexResult lex = Lex(source);
    ASSERT_FALSE(lex.tokens.empty());
    EXPECT_EQ(lex.tokens.back().kind, TokenKind::kEndOfFile);
  }
}

}  // namespace
}  // namespace fairlaw::analysis
