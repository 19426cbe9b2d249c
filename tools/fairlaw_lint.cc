// fairlaw_lint — project-invariant static analysis pass.
//
//   fairlaw_lint [--root=DIR] [--json=PATH] [--verbose]
//
// Walks src/, tools/, and tests/ under --root (default: current
// directory) and enforces the fairlaw project invariants that generic
// compiler warnings cannot express:
//
//   1. include-guard   every header uses the canonical
//                      FAIRLAW_<DIR>_<FILE>_H_ guard derived from its path
//                      (the src/ prefix is dropped; tools/x.h guards with
//                      FAIRLAW_TOOLS_X_H_).
//   2. banned-function no rand, srand, atoi, or strtod anywhere:
//                      randomness goes through stats::Rng (reproducible
//                      audits) and parsing through base/string_util.h
//                      (checked conversions). printf-to-stdout is banned
//                      in library code (src/) only — printing is the
//                      product of a CLI tool.
//   3. bare-check      every FAIRLAW_CHECK failure path must carry a
//                      message (use FAIRLAW_CHECK_MSG / FAIRLAW_CHECK_OK);
//                      messages must be non-empty.
//   5. thread-primitive
//                      raw std::thread and std::this_thread::sleep_for are
//                      banned outside src/base/: concurrency goes through
//                      fairlaw::ThreadPool, and synchronization happens on
//                      state, not wall-clock time.
//   6. hot-path        std::vector<bool> is banned tree-wide (its packed
//                      proxy references defeat spans and word-wise
//                      kernels; use std::vector<uint8_t> or data::Bitmap),
//                      and per-row std::string equality comparisons inside
//                      loops are flagged in src/audit/ and src/metrics/
//                      (group membership belongs in data::GroupIndex
//                      bitmaps, not string compares). A deliberate scalar
//                      baseline can opt out with a
//                      `lint: allow-string-compare` comment on the line or
//                      the line above.
//   7. timing-source   raw std::chrono::steady_clock is banned outside
//                      src/obs/: measurements flow through
//                      obs::MonotonicNowNs() / obs::TraceSpan so they
//                      share one clock and honor the obs kill switch.
//   8. simd-intrinsic  vendor SIMD intrinsics (<immintrin.h>/<arm_neon.h>
//                      includes, _mm*/__m* identifiers, NEON v*q_*
//                      builtins and vector types) live in exactly one
//                      header, src/base/simd.h. Everything else calls the
//                      fairlaw::simd wrappers, so the scalar fallback and
//                      the vector paths can never diverge silently.
//
// Rules 2, 3, 5, 6, and 7 run over the token stream produced by the
// shared analysis lexer (tools/analysis/lexer.h) — the same substrate
// fairlaw_detcheck uses — so identifiers inside string literals,
// comments, raw strings, and splice-continued comments never trip a
// rule (the pre-lexer scanner false-positived on the last two; see
// tools/lint_clean_fixture/). Directories named *_fixture are skipped:
// they hold the deliberate violations the self-tests check. Exit code
// 0 = clean, 1 = violations (listed one per line as
// file:line: rule: msg), 2 = usage or I/O error. --json writes the
// findings artifact in the schema every analysis pass shares
// (tools/analysis/report.h). Registered as a ctest test so violations
// fail tier-1.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tools/analysis/lexer.h"
#include "tools/analysis/report.h"
#include "tools/cli.h"

namespace {

namespace fs = std::filesystem;
using fairlaw::analysis::Comment;
using fairlaw::analysis::HasMarkerOnOrAbove;
using fairlaw::analysis::Lex;
using fairlaw::analysis::LexResult;
using fairlaw::analysis::MatchingClose;
using fairlaw::analysis::ReadFileToString;
using fairlaw::analysis::RelativeTo;
using fairlaw::analysis::Reporter;
using fairlaw::analysis::Token;
using fairlaw::analysis::TokenKind;
using fairlaw::analysis::TokenSeqAt;

class Linter {
 public:
  explicit Linter(fs::path root) : root_(std::move(root)) {}

  /// Runs every rule; returns the pass's Reporter with findings in
  /// canonical (file, line, rule) order.
  Reporter& Run() {
    const fs::path src = root_ / "src";
    if (fs::is_directory(src)) {
      ScanTree(src, /*library=*/true);
    } else {
      Report(src.string(), 0, "tree", "missing src/ directory under root");
    }
    // Tools, tests, and benchmarks get the same hygiene rules except the
    // stdout ban: printing IS the product of a CLI tool.
    for (const char* top : {"tools", "tests", "bench"}) {
      const fs::path dir = root_ / top;
      if (fs::is_directory(dir)) ScanTree(dir, /*library=*/false);
    }
    reporter_.Sorted();
    return reporter_;
  }

 private:
  /// Applies the per-file rules to every source file under `dir`.
  /// Directories named *_fixture hold deliberate violations for the
  /// analysis-pass self-tests and are skipped.
  void ScanTree(const fs::path& dir, bool library) {
    for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
      if (it->is_directory() &&
          it->path().filename().string().ends_with("_fixture")) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const fs::path& path = it->path();
      const std::string ext = path.extension().string();
      if (ext == ".h") CheckIncludeGuard(path);
      if (ext == ".h" || ext == ".cc") {
        const LexResult lex = Lex(ReadFile(path));
        const std::span<const Token> tokens(lex.tokens);
        CheckBannedFunctions(path, tokens, library);
        CheckMessagedChecks(path, tokens);
        CheckThreadPrimitives(path, tokens);
        CheckTimingSource(path, tokens);
        CheckSimdConfinement(path, tokens);
        CheckHotPath(path, tokens, lex.comments);
      }
    }
  }

  std::string ReadFile(const fs::path& path) {
    return ReadFileToString(path);
  }

  std::string RelPath(const fs::path& path) {
    return RelativeTo(path, root_);
  }

  /// Most lint rules are structural (a wrong include guard cannot be
  /// "allowed"), so findings bypass the marker machinery; the hot-path
  /// string-compare rule keeps its own pre-existing
  /// `lint: allow-string-compare` marker check at the call site.
  void Report(std::string file, size_t line, std::string rule,
              std::string message) {
    reporter_.ReportAlways(std::move(file), line, std::move(rule),
                           std::move(message));
  }

  /// Rule 1: canonical include guards. src/metrics/group_metrics.h must
  /// guard with FAIRLAW_METRICS_GROUP_METRICS_H_; headers outside src/
  /// keep their top directory in the guard (tools/x.h -> FAIRLAW_TOOLS_X_H_).
  void CheckIncludeGuard(const fs::path& path) {
    std::error_code ec;
    fs::path rel = fs::relative(path, root_ / "src", ec);
    if (ec || rel.generic_string().rfind("../", 0) == 0) {
      rel = fs::relative(path, root_, ec);
      if (ec) return;
    }
    std::string guard = "FAIRLAW_";
    for (const char c : rel.generic_string()) {
      if (c == '/' || c == '.' || c == '-') {
        guard += '_';
      } else {
        guard += static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
      }
    }
    guard += "_";  // FAIRLAW_<DIR>_<FILE>_H -> ..._H_

    const std::string text = ReadFile(path);
    const std::string ifndef_line = "#ifndef " + guard;
    const std::string define_line = "#define " + guard;
    if (text.find(ifndef_line) == std::string::npos ||
        text.find(define_line) == std::string::npos) {
      Report(RelPath(path), 1, "include-guard",
             "expected guard '" + guard + "' (#ifndef/#define pair)");
    }
  }

  /// Rule 2: banned functions. The stdout ban only applies to library
  /// code (`library` = under src/); the rest apply everywhere.
  void CheckBannedFunctions(const fs::path& path,
                            std::span<const Token> tokens, bool library) {
    struct Ban {
      const char* ident;
      const char* why;
      bool library_only;
    };
    static constexpr Ban kBans[] = {
        {"rand", "use stats::Rng: audits must be reproducible", false},
        {"srand", "use stats::Rng: audits must be reproducible", false},
        {"atoi", "use fairlaw::ParseInt64: unchecked parse loses errors",
         false},
        {"strtod", "use fairlaw::ParseDouble: unchecked parse loses errors",
         false},
        {"printf", "library code must not write to stdout; report via "
                   "Status or render strings", true},
    };
    for (const Token& token : tokens) {
      if (token.kind != TokenKind::kIdentifier) continue;
      for (const Ban& ban : kBans) {
        if (ban.library_only && !library) continue;
        if (token.text != ban.ident) continue;
        Report(RelPath(path), token.line, "banned-function",
               std::string("call to '") + ban.ident + "': " + ban.why);
      }
    }
  }

  /// Rule 3: every check carries a non-empty message. Bare FAIRLAW_CHECK
  /// is only allowed inside its defining header.
  void CheckMessagedChecks(const fs::path& path,
                           std::span<const Token> tokens) {
    const std::string rel = RelPath(path);
    if (rel == "src/base/check.h") return;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& token = tokens[i];
      if (token.kind != TokenKind::kIdentifier) continue;
      if (token.text == "FAIRLAW_CHECK") {
        Report(rel, token.line, "bare-check",
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
        Report(rel, last_string->line, "bare-check",
               token.text + " with an empty message");
      }
    }
  }

  /// Rule 5: concurrency goes through base/thread_pool.h. Raw std::thread
  /// and std::this_thread::sleep_for are banned outside src/base/ — ad-hoc
  /// threads dodge the annotated-mutex discipline, and sleeps in tests are
  /// how flakes are born.
  void CheckThreadPrimitives(const fs::path& path,
                             std::span<const Token> tokens) {
    const std::string rel = RelPath(path);
    if (rel.rfind("src/base/", 0) == 0) return;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (TokenSeqAt(tokens, i, {"std", "::", "thread"})) {
        Report(rel, tokens[i].line, "thread-primitive",
               "raw std::thread outside base/: use fairlaw::ThreadPool "
               "(base/thread_pool.h) so work is annotated and joined");
      }
      if (tokens[i].IsIdent("this_thread")) {
        Report(rel, tokens[i].line, "thread-primitive",
               "std::this_thread::sleep_for outside base/: synchronize on "
               "state, not on wall-clock time");
      }
    }
  }

  /// Rule 7: one sanctioned clock. Raw std::chrono::steady_clock is
  /// banned outside src/obs/ — obs::MonotonicNowNs() and obs::TraceSpan
  /// are the timing sources, so every measurement shares one clock and
  /// honors the obs kill switch.
  void CheckTimingSource(const fs::path& path,
                         std::span<const Token> tokens) {
    const std::string rel = RelPath(path);
    if (rel.rfind("src/obs/", 0) == 0) return;
    for (const Token& token : tokens) {
      if (!token.IsIdent("steady_clock")) continue;
      Report(rel, token.line, "timing-source",
             "raw std::chrono::steady_clock outside src/obs/: use "
             "obs::MonotonicNowNs() or obs::TraceSpan so measurements share "
             "one clock and honor the obs kill switch");
    }
  }

  /// Rule 8: vendor intrinsics are confined to src/base/simd.h — the one
  /// translation-unit-visible place where backend divergence is possible,
  /// and the only code the SIMD-vs-scalar equivalence tests exercise.
  /// Matches the intrinsic headers by name, the x86 _mm*/_MM*/__m*
  /// namespace, and the NEON builtin/vector-type spellings.
  void CheckSimdConfinement(const fs::path& path,
                            std::span<const Token> tokens) {
    const std::string rel = RelPath(path);
    if (rel == "src/base/simd.h") return;
    static constexpr const char* kPrefixes[] = {
        "_mm", "_MM", "__m",                            // x86 SSE/AVX
        "vld1", "vst1", "vcntq", "vpaddl", "vaddq",     // NEON builtins
        "vgetq", "vdupq", "vbicq", "vandq", "vreinterpretq",
        "uint8x", "uint16x", "uint32x", "uint64x",      // NEON vector types
    };
    for (const Token& token : tokens) {
      if (token.kind != TokenKind::kIdentifier) continue;
      const bool header = token.text == "immintrin" ||
                          token.text == "arm_neon" ||
                          token.text == "x86intrin";
      bool prefixed = false;
      for (const char* prefix : kPrefixes) {
        if (token.text.rfind(prefix, 0) == 0) {
          prefixed = true;
          break;
        }
      }
      if (!header && !prefixed) continue;
      Report(rel, token.line, "simd-intrinsic",
             "vendor SIMD intrinsic '" + token.text +
                 "' outside src/base/simd.h: call the fairlaw::simd "
                 "wrappers so scalar and vector builds stay equivalent");
    }
  }

  /// Collects the identifiers declared with type std::vector<std::string>
  /// (values, references, and members alike). Purely lexical: the
  /// declared name is the first identifier after the template closer and
  /// any &/* sigils.
  static std::vector<std::string> StringVectorNames(
      std::span<const Token> tokens) {
    std::vector<std::string> names;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (!TokenSeqAt(tokens, i,
                      {"std", "::", "vector", "<", "std", "::", "string",
                       ">"})) {
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

  /// Rule 6: hot-path hygiene. std::vector<bool> is banned in every
  /// scanned tree; per-row string equality inside loops is flagged for
  /// the audit/metric kernels, where membership tests must run on
  /// data::GroupIndex bitmaps (see DESIGN.md §9).
  void CheckHotPath(const fs::path& path, std::span<const Token> tokens,
                    const std::vector<Comment>& comments) {
    const std::string rel = RelPath(path);
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (TokenSeqAt(tokens, i, {"std", "::", "vector", "<", "bool", ">"})) {
        Report(rel, tokens[i].line, "hot-path",
               "std::vector<bool> is banned: its packed proxies defeat "
               "spans and word-wise kernels; use std::vector<uint8_t> or "
               "data::Bitmap");
      }
    }

    const bool hot_tree = rel.rfind("src/audit/", 0) == 0 ||
                          rel.rfind("src/metrics/", 0) == 0;
    if (!hot_tree) return;
    const std::vector<std::string> names = StringVectorNames(tokens);
    if (names.empty()) return;

    // One pass over the tokens tracking which brace depths are loop
    // bodies; a `for`/`while` header counts as in-loop from its keyword
    // onward, which also catches per-row compares in the loop condition
    // itself.
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
      if (std::find(names.begin(), names.end(), token.text) == names.end()) {
        continue;
      }
      // `name [ ... ] ==` or `!=`: a per-row rendered-string compare.
      if (i + 1 >= tokens.size() || !tokens[i + 1].IsPunct("[")) continue;
      const size_t close = MatchingClose(tokens, i + 1);
      if (close + 1 >= tokens.size()) continue;
      const Token& op = tokens[close + 1];
      if (!op.IsPunct("==") && !op.IsPunct("!=")) continue;
      if (HasMarkerOnOrAbove(comments, "lint: allow-string-compare",
                             op.line)) {
        continue;
      }
      Report(rel, op.line, "hot-path",
             "per-row std::string compare inside a loop: audit/metric "
             "kernels must test membership via data::GroupIndex bitmaps "
             "(add `lint: allow-string-compare` only for a deliberate "
             "scalar baseline)");
    }
  }

  fs::path root_;
  Reporter reporter_{"fairlaw_lint", "lint"};
};

}  // namespace

int main(int argc, char** argv) {
  std::string root_flag = ".";
  std::string json_path;
  bool verbose = false;
  fairlaw::cli::FlagSet flags(
      "fairlaw_lint", "",
      "Static-analysis pass enforcing the fairlaw project invariants\n"
      "(see the header of tools/fairlaw_lint.cc for the rule set).\n"
      "exit codes: 0 clean, 1 violations, 2 usage or I/O error");
  flags.Add("root", &root_flag, "tree to scan");
  flags.Section("output");
  flags.Add("json", &json_path, "write the findings artifact to this path");
  flags.Add("verbose", &verbose, "print the violation count even when clean");
  fairlaw::Result<fairlaw::cli::ParseResult> parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "fairlaw_lint: %s\n\n%s",
                 parsed.status().message().c_str(), flags.Help().c_str());
    return 2;
  }
  if (parsed->help) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!parsed->positionals.empty()) {
    std::fprintf(stderr, "fairlaw_lint: unexpected argument '%s'\n",
                 parsed->positionals[0].c_str());
    return 2;
  }
  fs::path root(root_flag);
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "fairlaw_lint: root '%s' is not a directory\n",
                 root.string().c_str());
    return 2;
  }

  Linter linter(root);
  Reporter& reporter = linter.Run();
  reporter.PrintFindings(verbose);
  if (!json_path.empty() && !reporter.WriteArtifact(json_path)) return 2;
  return reporter.Sorted().empty() ? 0 : 1;
}
