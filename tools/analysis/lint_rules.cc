// Project-hygiene rules (family `lint`): invariants of src/, tools/,
// tests/, and bench/ that generic compiler warnings cannot express.
//
//   include-guard     every header uses the canonical
//                     FAIRLAW_<DIR>_<FILE>_H_ guard derived from its path
//                     (the src/ prefix is dropped; tools/x.h guards with
//                     FAIRLAW_TOOLS_X_H_).
//   banned-function   no rand, srand, atoi, or strtod anywhere:
//                     randomness goes through stats::Rng (reproducible
//                     audits) and parsing through base/string_util.h
//                     (checked conversions). printf is banned in library
//                     code (src/) only — printing is the product of a
//                     CLI tool.
//   bare-check        every FAIRLAW_CHECK failure path carries a non-empty
//                     message (FAIRLAW_CHECK_MSG / FAIRLAW_CHECK_OK).
//   thread-primitive  raw std::thread and std::this_thread are banned
//                     outside src/base/: concurrency goes through
//                     fairlaw::ThreadPool, and synchronization happens on
//                     state, not wall-clock time.
//   hot-path          std::vector<bool> is banned (its packed proxies
//                     defeat spans), and per-row std::string equality or
//                     a ValueToString( call inside loops is flagged in
//                     src/audit/ and src/metrics/, where rows are keyed
//                     and compared by data::ExtractKeys codes.
//   timing-source     raw std::chrono::steady_clock is banned outside
//                     src/obs/: measurements flow through
//                     obs::MonotonicNowNs() / obs::TraceSpan so they share
//                     one clock and honor the obs kill switch.
//   simd-intrinsic    vendor SIMD intrinsics (<immintrin.h>/<arm_neon.h>,
//                     _mm*/__m* identifiers, NEON builtins and vector
//                     types) are banned everywhere: a kernel is portable
//                     C++ the compiler vectorizes, with one body for
//                     every CPU (see stats::CosSumAffine).
#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "tools/analysis/check.h"

namespace fairlaw::analysis {
namespace {

bool InLintTrees(const SourceFile& file) {
  return (file.Under("src/") || file.Under("tools/") ||
          file.Under("tests/") || file.Under("bench/")) &&
         !file.rel.ends_with(".cpp");
}

/// True when tokens[i..] spell the directive `# <directive> <name>`.
bool IsDirective(std::span<const Token> tokens, size_t i,
                 std::string_view directive, std::string_view name) {
  return i + 2 < tokens.size() && tokens[i].IsPunct("#") &&
         tokens[i + 1].IsIdent(directive) && tokens[i + 2].IsIdent(name);
}

/// src/metrics/group_metrics.h must guard with
/// FAIRLAW_METRICS_GROUP_METRICS_H_; headers outside src/ keep their
/// top directory in the guard.
void CheckIncludeGuard(const Rule& self, const RuleInput& in, Reporter& out) {
  const SourceFile& file = *in.file;
  const std::string_view path = file.Under("src/")
                                    ? std::string_view(file.rel).substr(4)
                                    : std::string_view(file.rel);
  std::string guard = "FAIRLAW_";
  for (const char c : path) {
    guard += (c == '/' || c == '.' || c == '-')
                 ? '_'
                 : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  guard += "_";  // FAIRLAW_<DIR>_<FILE>_H -> ..._H_
  const std::span<const Token> tokens = file.tokens();
  bool has_ifndef = false;
  bool has_define = false;
  for (size_t i = 0; i < tokens.size(); ++i) {
    has_ifndef = has_ifndef || IsDirective(tokens, i, "ifndef", guard);
    has_define = has_define || IsDirective(tokens, i, "define", guard);
  }
  if (!has_ifndef || !has_define) {
    out.Report(self, file, 1,
               "expected guard '" + guard + "' (#ifndef/#define pair)");
  }
}

void CheckBannedFunctions(const Rule& self, const RuleInput& in,
                          Reporter& out) {
  struct Ban {
    const char* ident;
    const char* why;
    bool library_only;
  };
  static constexpr Ban kBans[] = {
      {"rand", "use stats::Rng: audits must be reproducible", false},
      {"srand", "use stats::Rng: audits must be reproducible", false},
      {"atoi", "use fairlaw::ParseInt64: unchecked parse loses errors", false},
      {"strtod", "use fairlaw::ParseDouble: unchecked parse loses errors",
       false},
      {"printf", "library code must not write to stdout; report via "
                 "Status or render strings", true},
  };
  if (!in.file->Mentions({"rand", "srand", "atoi", "strtod", "printf"})) {
    return;
  }
  const bool library = in.file->Under("src/");
  for (const Token& token : in.file->tokens()) {
    if (token.kind != TokenKind::kIdentifier) continue;
    for (const Ban& ban : kBans) {
      if (ban.library_only && !library) continue;
      if (token.text != ban.ident) continue;
      out.Report(self, *in.file, token.line,
                 std::string("call to '") + ban.ident + "': " + ban.why);
    }
  }
}

void CheckMessagedChecks(const Rule& self, const RuleInput& in,
                         Reporter& out) {
  if (!in.file->Mentions(
          {"FAIRLAW_CHECK", "FAIRLAW_CHECK_MSG", "FAIRLAW_NOTREACHED"})) {
    return;
  }
  const std::span<const Token> tokens = in.file->tokens();
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kIdentifier) continue;
    if (token.text == "FAIRLAW_CHECK") {
      out.Report(self, *in.file, token.line,
                 "FAIRLAW_CHECK without a message; use FAIRLAW_CHECK_MSG so a "
                 "production crash names the violated invariant");
      continue;
    }
    if (token.text != "FAIRLAW_CHECK_MSG" &&
        token.text != "FAIRLAW_NOTREACHED") {
      continue;
    }
    if (i + 1 >= tokens.size() || !tokens[i + 1].IsPunct("(")) continue;
    const size_t close = MatchingClose(tokens, i + 1);
    // The message is the last string literal among the arguments; an
    // empty one defeats the point of the macro.
    const Token* last_string = nullptr;
    for (size_t j = i + 2; j < close && j < tokens.size(); ++j) {
      if (tokens[j].kind == TokenKind::kString) last_string = &tokens[j];
    }
    if (last_string != nullptr && last_string->text.empty()) {
      out.Report(self, *in.file, last_string->line,
                 token.text + " with an empty message");
    }
  }
}

void CheckThreadPrimitives(const Rule& self, const RuleInput& in,
                           Reporter& out) {
  if (!in.file->Mentions({"thread", "this_thread"})) return;
  const std::span<const Token> tokens = in.file->tokens();
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (TokenSeqAt(tokens, i, {"std", "::", "thread"})) {
      out.Report(self, *in.file, tokens[i].line,
                 "raw std::thread outside base/: use fairlaw::ThreadPool "
                 "(base/thread_pool.h) so work is annotated and joined");
    }
    if (tokens[i].IsIdent("this_thread")) {
      out.Report(self, *in.file, tokens[i].line,
                 "std::this_thread::sleep_for outside base/: synchronize on "
                 "state, not on wall-clock time");
    }
  }
}

void CheckTimingSource(const Rule& self, const RuleInput& in, Reporter& out) {
  if (!in.file->Mentions({"steady_clock"})) return;
  for (const Token& token : in.file->tokens()) {
    if (!token.IsIdent("steady_clock")) continue;
    out.Report(self, *in.file, token.line,
               "raw std::chrono::steady_clock outside src/obs/: use "
               "obs::MonotonicNowNs() or obs::TraceSpan so measurements share "
               "one clock and honor the obs kill switch");
  }
}

void CheckSimdIntrinsics(const Rule& self, const RuleInput& in,
                         Reporter& out) {
  static constexpr const char* kPrefixes[] = {
      "_mm", "_MM", "__m",                            // x86 SSE/AVX
      "vld1", "vst1", "vcntq", "vpaddl", "vaddq",     // NEON builtins
      "vgetq", "vdupq", "vbicq", "vandq", "vreinterpretq",
      "uint8x", "uint16x", "uint32x", "uint64x",      // NEON vector types
  };
  auto is_intrinsic = [](std::string_view ident) {
    return ident == "immintrin" || ident == "arm_neon" ||
           ident == "x86intrin" ||
           std::any_of(std::begin(kPrefixes), std::end(kPrefixes),
                       [ident](const char* prefix) {
                         return ident.starts_with(prefix);
                       });
  };
  const IdentSet& idents = in.file->idents;
  if (std::none_of(idents.begin(), idents.end(), is_intrinsic)) return;
  for (const Token& token : in.file->tokens()) {
    if (token.kind != TokenKind::kIdentifier || !is_intrinsic(token.text)) {
      continue;
    }
    out.Report(self, *in.file, token.line,
               "vendor SIMD intrinsic '" + token.text +
                   "': write the kernel in portable C++ and let the "
                   "compiler vectorize it, so every CPU runs one body");
  }
}

/// Identifiers declared with type std::vector<std::string> (values,
/// references, and members alike): the first identifier after the
/// template closer and any &/* sigils.
std::vector<std::string> StringVectorNames(std::span<const Token> tokens) {
  std::vector<std::string> names;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!TokenSeqAt(tokens, i,
                    {"std", "::", "vector", "<", "std", "::", "string", ">"})) {
      continue;
    }
    size_t j = i + 8;
    while (j < tokens.size() &&
           (tokens[j].IsPunct("&") || tokens[j].IsPunct("*"))) {
      ++j;
    }
    if (j < tokens.size() && tokens[j].kind == TokenKind::kIdentifier) {
      names.push_back(tokens[j].text);
    }
  }
  return names;
}

void CheckHotPath(const Rule& self, const RuleInput& in, Reporter& out) {
  const SourceFile& file = *in.file;
  if (!file.Mentions({"vector", "ValueToString"})) return;
  const std::span<const Token> tokens = file.tokens();
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (TokenSeqAt(tokens, i, {"std", "::", "vector", "<", "bool", ">"})) {
      out.Report(self, file, tokens[i].line,
                 "std::vector<bool> is banned: its packed proxies defeat "
                 "spans; use std::vector<uint8_t>");
    }
  }

  if (!file.Under("src/audit/") && !file.Under("src/metrics/")) return;
  const std::vector<std::string> names = StringVectorNames(tokens);
  if (names.empty() && !file.Mentions({"ValueToString"})) return;

  // One pass tracking which brace depths are loop bodies; a for/while
  // header counts as in-loop from its keyword onward, which also catches
  // per-row compares in the loop condition itself.
  std::vector<size_t> loop_depths;
  size_t depth = 0;
  bool pending_loop = false;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.IsPunct("{")) {
      ++depth;
      if (pending_loop) {
        loop_depths.push_back(depth);
        pending_loop = false;
      }
      continue;
    }
    if (token.IsPunct("}")) {
      if (!loop_depths.empty() && loop_depths.back() == depth) {
        loop_depths.pop_back();
      }
      if (depth > 0) --depth;
      continue;
    }
    if (token.kind != TokenKind::kIdentifier) continue;
    if (token.text == "for" || token.text == "while") {
      pending_loop = true;
      continue;
    }
    if (!(pending_loop || !loop_depths.empty())) continue;
    if (token.text == "ValueToString" && i + 1 < tokens.size() &&
        tokens[i + 1].IsPunct("(")) {
      out.Report(self, file, token.line,
                 "per-row ValueToString inside a loop: audit/metric "
                 "kernels key rows by data::ExtractKeys codes, not "
                 "rendered strings (add `lint: allow-hot-path` only for a "
                 "deliberate scalar baseline)");
      continue;
    }
    if (std::find(names.begin(), names.end(), token.text) == names.end()) {
      continue;
    }
    // `name [ ... ] ==` or `!=`: a per-row rendered-string compare.
    if (i + 1 >= tokens.size() || !tokens[i + 1].IsPunct("[")) continue;
    const size_t close = MatchingClose(tokens, i + 1);
    if (close + 1 >= tokens.size()) continue;
    const Token& op = tokens[close + 1];
    if (!op.IsPunct("==") && !op.IsPunct("!=")) continue;
    out.Report(self, file, op.line,
               "per-row std::string compare inside a loop: audit/metric "
               "kernels must test membership by data::ExtractKeys codes "
               "(add `lint: allow-hot-path` only for a deliberate scalar "
               "baseline)");
  }
}

constexpr Rule kLintRules[] = {
    {"include-guard", "lint", RuleKind::kTokenStream,
     [](const SourceFile& f) { return InLintTrees(f) && f.IsHeader(); },
     CheckIncludeGuard},
    {"banned-function", "lint", RuleKind::kTokenStream, InLintTrees,
     CheckBannedFunctions},
    {"bare-check", "lint", RuleKind::kTokenStream,
     [](const SourceFile& f) {
       return InLintTrees(f) && f.rel != "src/base/check.h";
     },
     CheckMessagedChecks},
    {"thread-primitive", "lint", RuleKind::kTokenStream,
     [](const SourceFile& f) { return InLintTrees(f) && !f.Under("src/base/"); },
     CheckThreadPrimitives},
    {"hot-path", "lint", RuleKind::kTokenStream, InLintTrees, CheckHotPath},
    {"timing-source", "lint", RuleKind::kTokenStream,
     [](const SourceFile& f) { return InLintTrees(f) && !f.Under("src/obs/"); },
     CheckTimingSource},
    {"simd-intrinsic", "lint", RuleKind::kTokenStream, InLintTrees,
     CheckSimdIntrinsics},
};

}  // namespace

std::span<const Rule> LintRules() { return kLintRules; }

}  // namespace fairlaw::analysis
