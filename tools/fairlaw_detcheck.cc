// fairlaw_detcheck — determinism and lock-discipline static analysis.
//
//   fairlaw_detcheck [--root=DIR] [--json=PATH] [--self-test=RULES]
//                    [--verbose]
//
// Third analysis pass next to fairlaw_lint (local hygiene) and
// fairlaw_deps (layering): it guards the repo's load-bearing guarantee
// that audit findings, bootstrap CIs, and obs exports are byte-identical
// for any thread/chunk configuration — the reproducibility bar that lets
// a regulator treat an audit as evidence rather than a one-off run.
// Every rule rejects a construct that can silently leak scheduling,
// hashing, or environment state into exported results. Built on the
// shared token lexer (tools/analysis/lexer.h), so identifiers inside
// strings and comments never trip a rule.
//
// Rules (escape hatch: a `detcheck: allow-<rule>` comment on the
// flagged line or the line above; suppressions are counted in the JSON
// artifact so they stay visible):
//
//   1. unordered-iteration
//        Range-for loops or .begin()/.cbegin() iteration over
//        identifiers declared std::unordered_map/std::unordered_set in
//        the output-contributing trees (src/audit, src/metrics,
//        src/stats, src/obs, src/legal, src/causal). Hash-table
//        iteration order is implementation- and seed-defined, so it
//        must never feed exported or merged results; iterate a sorted
//        view or a first-seen-order index (data::GroupIndex) instead.
//   2. entropy
//        Unsanctioned randomness/time/environment sources anywhere but
//        src/obs/ (home of MonotonicNowNs and the env kill switch):
//        rand, srand, rand_r, drand48, random_device, std engines
//        (mt19937, default_random_engine, ...), system_clock,
//        high_resolution_clock, gettimeofday, timespec_get,
//        clock_gettime, getenv, and time(/clock( calls. Randomness
//        flows through the counter-based SplitMix64 streams
//        (stats::Rng), timing through obs::MonotonicNowNs().
//   3. merge-order
//        Direct accumulation into by-reference-captured state from a
//        worker lambda handed to ThreadPool::Submit/ParallelFor
//        (compound assignment, ++/--, or container push/insert).
//        Completion order is nondeterministic, so workers must write
//        only their own slot (results[i] = ...) or hand (seq, value)
//        pairs to a mutex-guarded aggregator that sorts by sequence
//        number before merging — the idiom audit::EvaluateMetrics and the
//        subgroup enumerator established. Lambdas named at the call
//        site (auto task = [&](...){...}; pool.ParallelFor(n, task);)
//        are followed to their definition.
//   4. lock-expensive
//        A MutexLock scope that performs I/O, heavy allocation, or
//        pool submission (printf/fstream/ostream, Submit/ParallelFor,
//        std::to_string formatting, export/load entry points, ...).
//        Clang's -Wthread-safety proves the lock is *held*; this rule
//        covers what it cannot express — that the critical section
//        stays short and allocation-light. Snapshot under the lock,
//        format and publish outside it.
//   5. float-reduction
//        std::accumulate / std::reduce / std::transform_reduce /
//        std::inner_product outside src/stats/. Floating-point
//        addition is not associative, so reduction order changes
//        results in the last ulp; stats/ owns the fixed-order
//        reduction helpers every exported number must flow through.
//
// Output: one `file:line: rule: message` diagnostic per finding on
// stderr, plus a machine-readable findings artifact via --json in the
// schema every analysis pass shares (tools/analysis/report.h:
// {"tool":"fairlaw_detcheck","schema_version":1,"findings":[{file,line,
// rule,message}],"count":N,"suppressed":N}; findings sorted by
// file/line/rule, byte-identical for a given tree). --self-test=rule1,
// rule2 exits 0 iff exactly that rule set fires (the fixture tests use
// it to prove every rule detects its negative fixture). Directories
// named *_fixture are skipped. Exit codes: 0 clean, 1 findings, 2 usage
// or I/O error. Registered as a ctest test, so an unsuppressed finding
// fails tier-1.
#include <algorithm>
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
using fairlaw::analysis::CollectSources;
using fairlaw::analysis::Comment;
using fairlaw::analysis::Lex;
using fairlaw::analysis::LexResult;
using fairlaw::analysis::MatchingClose;
using fairlaw::analysis::ReadFileToString;
using fairlaw::analysis::RelativeTo;
using fairlaw::analysis::Reporter;
using fairlaw::analysis::Token;
using fairlaw::analysis::TokenKind;
using fairlaw::analysis::TokenSeqAt;

/// Trees whose iteration/merge order reaches exported results: audit
/// findings, metric reports, stats CIs, obs exports, legal dossiers,
/// and the causal values metrics consume.
constexpr std::string_view kOutputTrees[] = {
    "src/audit/", "src/metrics/", "src/stats/",
    "src/obs/",   "src/legal/",   "src/causal/",
};

/// Identifiers that smuggle in nondeterminism (rule 2). `time` and
/// `clock` are only flagged as calls (identifier followed by '(').
constexpr std::string_view kEntropyIdents[] = {
    "rand",          "srand",
    "rand_r",        "drand48",
    "random_device", "mt19937",
    "mt19937_64",    "default_random_engine",
    "knuth_b",       "minstd_rand",
    "system_clock",  "high_resolution_clock",
    "gettimeofday",  "timespec_get",
    "clock_gettime", "getenv",
};

constexpr std::string_view kEntropyCallIdents[] = {"time", "clock"};

/// Calls too expensive for a critical section (rule 4): I/O, pool
/// submission, and formatting/allocation-heavy entry points.
constexpr std::string_view kExpensiveInLock[] = {
    "Submit",  "ParallelFor", "printf",  "fprintf",    "fputs",
    "fwrite",  "fopen",       "fflush",  "ifstream",   "ofstream",
    "fstream", "getline",     "system",  "cout",       "cerr",
    "clog",    "to_string",   "ExportJson", "LoadCsv", "ReadFile",
    "WriteFile", "Flush",     "sleep_for",
};

/// Container members whose call from a worker lambda appends in
/// completion order (rule 3).
constexpr std::string_view kAppendMembers[] = {
    "push_back", "emplace_back", "insert", "emplace", "append",
};

constexpr std::string_view kCompoundOps[] = {
    "+=", "-=", "*=", "/=", "|=", "&=", "^=", "++", "--",
};

/// Identifier-before-identifier contexts that are NOT declarations, so
/// `return total;` does not mark `total` as a lambda-local.
constexpr std::string_view kNotDeclKeywords[] = {
    "return",   "co_return", "co_yield", "co_await", "throw",
    "new",      "delete",    "else",     "do",       "goto",
    "case",     "sizeof",    "typename", "using",    "namespace",
    "operator", "if",        "while",    "for",
};

bool InTrees(const std::string& rel, std::span<const std::string_view> trees) {
  for (const std::string_view tree : trees) {
    if (rel.rfind(tree, 0) == 0) return true;
  }
  return false;
}

template <size_t N>
bool Contains(const std::string_view (&arr)[N], std::string_view value) {
  for (const std::string_view element : arr) {
    if (element == value) return true;
  }
  return false;
}

class DetChecker {
 public:
  explicit DetChecker(fs::path root) : root_(std::move(root)) {}

  /// Scans the tree and returns the pass's Reporter with findings in
  /// canonical order. Scan order comes from CollectSources, so the
  /// artifact is byte-identical for a given tree.
  Reporter& Run() {
    static constexpr std::string_view kTops[] = {"src", "tools"};
    for (const fs::path& path : CollectSources(root_, kTops)) {
      CheckFile(path);
    }
    reporter_.Sorted();
    return reporter_;
  }

 private:
  void CheckFile(const fs::path& path) {
    const std::string text = ReadFileToString(path);
    const std::string rel = RelativeTo(path, root_);
    const LexResult lex = Lex(text);
    const std::span<const Token> tokens(lex.tokens);

    if (InTrees(rel, kOutputTrees)) {
      CheckUnorderedIteration(rel, tokens, lex.comments);
    }
    if (rel.rfind("src/obs/", 0) != 0) {
      CheckEntropy(rel, tokens, lex.comments);
    }
    CheckMergeOrder(rel, tokens, lex.comments);
    CheckLockExpensive(rel, tokens, lex.comments);
    if (rel.rfind("src/stats/", 0) != 0) {
      CheckFloatReduction(rel, tokens, lex.comments);
    }
  }

  /// The escape-marker handling (`detcheck: allow-<rule>` on the line,
  /// the line above, or the anchor line) lives in Reporter::Report.
  void Report(const std::string& rel, const std::vector<Comment>& comments,
              size_t line, std::string rule, std::string message,
              size_t anchor_line = 0) {
    reporter_.Report(rel, comments, line, std::move(rule), std::move(message),
                     anchor_line);
  }

  /// Names declared with type std::unordered_map<...> or
  /// std::unordered_set<...> in this file (members, locals, and
  /// parameters alike) — purely lexical: the declared name is the first
  /// identifier after the template argument list and any &/* sigils.
  static std::vector<std::string> UnorderedNames(
      std::span<const Token> tokens) {
    std::vector<std::string> names;
    for (size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (!TokenSeqAt(tokens, i, {"std", "::"})) continue;
      const Token& kind = tokens[i + 2];
      if (!kind.IsIdent("unordered_map") && !kind.IsIdent("unordered_set")) {
        continue;
      }
      size_t j = i + 3;
      if (j >= tokens.size() || !tokens[j].IsPunct("<")) continue;
      // Skip the template argument list; ">>" closes two levels.
      int depth = 0;
      for (; j < tokens.size(); ++j) {
        if (tokens[j].IsPunct("<")) ++depth;
        if (tokens[j].IsPunct(">")) --depth;
        if (tokens[j].IsPunct(">>")) depth -= 2;
        if (depth <= 0) break;
      }
      ++j;  // past the closer
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

  /// Rule 1: hash-order iteration in output-contributing trees.
  void CheckUnorderedIteration(const std::string& rel,
                               std::span<const Token> tokens,
                               const std::vector<Comment>& comments) {
    const std::vector<std::string> names = UnorderedNames(tokens);
    if (names.empty()) return;
    auto is_tracked = [&names](const Token& token) {
      return token.kind == TokenKind::kIdentifier &&
             std::find(names.begin(), names.end(), token.text) != names.end();
    };
    for (size_t i = 0; i < tokens.size(); ++i) {
      // Range-for whose range expression names an unordered container.
      if (tokens[i].IsIdent("for") && i + 1 < tokens.size() &&
          tokens[i + 1].IsPunct("(")) {
        const size_t close = MatchingClose(tokens, i + 1);
        size_t colon = tokens.size();
        int depth = 0;
        for (size_t j = i + 1; j < close; ++j) {
          if (tokens[j].IsPunct("(")) ++depth;
          if (tokens[j].IsPunct(")")) --depth;
          if (depth == 1 && tokens[j].IsPunct(":")) {
            colon = j;
            break;
          }
        }
        if (colon == tokens.size()) continue;
        for (size_t j = colon + 1; j < close; ++j) {
          if (!is_tracked(tokens[j])) continue;
          Report(rel, comments, tokens[i].line, "unordered-iteration",
                 "range-for over std::unordered_* '" + tokens[j].text +
                     "': hash iteration order is implementation-defined "
                     "and leaks into merged/exported results; iterate a "
                     "sorted view or a first-seen-order index");
          break;
        }
        continue;
      }
      // Explicit iterator loops: name.begin() / name.cbegin().
      if (i + 2 < tokens.size() && is_tracked(tokens[i]) &&
          tokens[i + 1].IsPunct(".") &&
          (tokens[i + 2].IsIdent("begin") || tokens[i + 2].IsIdent("cbegin"))) {
        Report(rel, comments, tokens[i].line, "unordered-iteration",
               "iterator over std::unordered_* '" + tokens[i].text +
                   "': hash iteration order is implementation-defined and "
                   "leaks into merged/exported results");
      }
    }
  }

  /// Rule 2: unsanctioned entropy/time/environment sources.
  void CheckEntropy(const std::string& rel, std::span<const Token> tokens,
                    const std::vector<Comment>& comments) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& token = tokens[i];
      if (token.kind != TokenKind::kIdentifier) continue;
      const bool named = Contains(kEntropyIdents, token.text);
      const bool call = Contains(kEntropyCallIdents, token.text) &&
                        i + 1 < tokens.size() && tokens[i + 1].IsPunct("(");
      if (!named && !call) continue;
      Report(rel, comments, token.line, "entropy",
             "'" + token.text +
                 "' is an unsanctioned entropy/time source: randomness "
                 "goes through the counter-based SplitMix64 streams "
                 "(stats::Rng), timing through obs::MonotonicNowNs(), so "
                 "results depend only on (seed, input), never on the "
                 "host, schedule, or wall clock");
    }
  }

  // -- Rule 3 helpers. -----------------------------------------------------

  struct Lambda {
    size_t intro = 0;       // index of '['
    size_t body_open = 0;   // index of '{'
    size_t body_close = 0;  // index of '}'
    bool default_ref = false;
    std::vector<std::string> ref_captures;
    std::vector<std::string> locals;  // params + declared-in-body names
  };

  /// Parses the lambda literal whose capture intro starts at `intro`
  /// ('[' token). Returns false when the bracket shape is not a lambda.
  static bool ParseLambda(std::span<const Token> tokens, size_t intro,
                          Lambda* out) {
    const size_t intro_close = MatchingClose(tokens, intro);
    if (intro_close >= tokens.size()) return false;
    out->intro = intro;
    // Capture list: [&], [&a, b], [=, &c], [this, &d] ...
    for (size_t j = intro + 1; j < intro_close; ++j) {
      if (tokens[j].IsPunct("&")) {
        if (j + 1 < intro_close &&
            tokens[j + 1].kind == TokenKind::kIdentifier) {
          out->ref_captures.push_back(tokens[j + 1].text);
          ++j;
        } else {
          out->default_ref = true;
        }
      }
    }
    // Optional parameter list.
    size_t j = intro_close + 1;
    if (j < tokens.size() && tokens[j].IsPunct("(")) {
      const size_t params_close = MatchingClose(tokens, j);
      if (params_close >= tokens.size()) return false;
      // The declared name of each parameter is the identifier right
      // before ',' or ')'.
      for (size_t k = j + 1; k <= params_close; ++k) {
        if ((tokens[k].IsPunct(",") || k == params_close) && k > j + 1 &&
            tokens[k - 1].kind == TokenKind::kIdentifier) {
          out->locals.push_back(tokens[k - 1].text);
        }
      }
      j = params_close + 1;
    }
    // Skip specifiers/trailing-return tokens up to the body brace.
    while (j < tokens.size() && !tokens[j].IsPunct("{") &&
           !tokens[j].IsPunct(";") && !tokens[j].IsPunct(")")) {
      ++j;
    }
    if (j >= tokens.size() || !tokens[j].IsPunct("{")) return false;
    out->body_open = j;
    out->body_close = MatchingClose(tokens, j);
    if (out->body_close >= tokens.size()) return false;
    CollectBodyLocals(tokens, out);
    return true;
  }

  /// Heuristic local-declaration scan of the body: `Type name`,
  /// `Tmpl<...> name`, and `Type& name` shapes mark `name` as local, so
  /// a worker accumulating into its own stack variable is not flagged.
  static void CollectBodyLocals(std::span<const Token> tokens, Lambda* out) {
    for (size_t j = out->body_open + 1; j < out->body_close; ++j) {
      if (tokens[j].kind != TokenKind::kIdentifier) continue;
      const Token& prev = tokens[j - 1];
      const bool after_type_name = prev.kind == TokenKind::kIdentifier &&
                                   !Contains(kNotDeclKeywords, prev.text);
      const bool after_template_close = prev.IsPunct(">");
      const bool after_sigil =
          (prev.IsPunct("&") || prev.IsPunct("*")) && j >= 2 &&
          (tokens[j - 2].kind == TokenKind::kIdentifier ||
           tokens[j - 2].IsPunct(">"));
      if (after_type_name || after_template_close || after_sigil) {
        out->locals.push_back(tokens[j].text);
      }
    }
  }

  /// True when `name` may be written from outside the worker: captured
  /// by reference explicitly, or visible through a [&] default and not
  /// declared locally.
  static bool IsSharedWrite(const Lambda& lambda, const std::string& name) {
    if (std::find(lambda.locals.begin(), lambda.locals.end(), name) !=
        lambda.locals.end()) {
      return false;
    }
    if (std::find(lambda.ref_captures.begin(), lambda.ref_captures.end(),
                  name) != lambda.ref_captures.end()) {
      return true;
    }
    return lambda.default_ref;
  }

  void ScanLambdaBody(const std::string& rel, std::span<const Token> tokens,
                      const std::vector<Comment>& comments,
                      const Lambda& lambda) {
    for (size_t j = lambda.body_open + 1; j < lambda.body_close; ++j) {
      const Token& token = tokens[j];
      std::string written;
      size_t op_index = 0;
      // `x += ...`, `x++`, `++x` on a captured name.
      if (token.kind == TokenKind::kIdentifier &&
          tokens[j + 1].kind == TokenKind::kPunct &&
          Contains(kCompoundOps, tokens[j + 1].text)) {
        written = token.text;
        op_index = j;
      } else if (token.kind == TokenKind::kPunct &&
                 (token.text == "++" || token.text == "--") &&
                 tokens[j + 1].kind == TokenKind::kIdentifier) {
        written = tokens[j + 1].text;
        op_index = j + 1;
      } else if (token.kind == TokenKind::kIdentifier &&
                 tokens[j + 1].IsPunct(".") &&
                 tokens[j + 2].kind == TokenKind::kIdentifier &&
                 Contains(kAppendMembers, tokens[j + 2].text) &&
                 j + 3 < tokens.size() && tokens[j + 3].IsPunct("(")) {
        written = token.text;
        op_index = j;
      } else {
        continue;
      }
      if (!IsSharedWrite(lambda, written)) continue;
      Report(rel, comments, tokens[op_index].line, "merge-order",
             "worker lambda accumulates into captured-by-reference '" +
                 written +
                 "': completion order is nondeterministic, so write a "
                 "per-task slot (results[i] = ...) or hand (seq, value) "
                 "to a mutex-guarded aggregator that merges in sequence "
                 "order (the EvaluateMetrics idiom)");
    }
  }

  /// Rule 3: accumulation from Submit/ParallelFor worker lambdas —
  /// lambda literals at the call site plus lambdas assigned to a name
  /// that is later passed to Submit/ParallelFor.
  void CheckMergeOrder(const std::string& rel, std::span<const Token> tokens,
                       const std::vector<Comment>& comments) {
    std::vector<std::string> task_names;
    std::vector<size_t> literal_intros;
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (!(tokens[i].IsIdent("Submit") || tokens[i].IsIdent("ParallelFor")) ||
          !tokens[i + 1].IsPunct("(")) {
        continue;
      }
      const size_t close = MatchingClose(tokens, i + 1);
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (tokens[j].IsPunct("(") || tokens[j].IsPunct("[") ||
            tokens[j].IsPunct("{")) {
          ++depth;
        }
        if (tokens[j].IsPunct(")") || tokens[j].IsPunct("]") ||
            tokens[j].IsPunct("}")) {
          --depth;
        }
        // A '[' in argument position opens a lambda intro (a subscript
        // would follow a name or ']'); arguments sit at depth 1.
        if (tokens[j].IsPunct("[") && depth == 2 &&
            (tokens[j - 1].IsPunct("(") || tokens[j - 1].IsPunct(","))) {
          literal_intros.push_back(j);
        }
        // An identifier argument names a task defined elsewhere.
        if (depth == 1 && tokens[j].kind == TokenKind::kIdentifier &&
            (tokens[j - 1].IsPunct("(") || tokens[j - 1].IsPunct(",")) &&
            (tokens[j + 1].IsPunct(",") || tokens[j + 1].IsPunct(")"))) {
          task_names.push_back(tokens[j].text);
        }
      }
    }
    // Definitions of named tasks: `name = [...](...) {...}`.
    for (size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (tokens[i].kind == TokenKind::kIdentifier &&
          std::find(task_names.begin(), task_names.end(), tokens[i].text) !=
              task_names.end() &&
          tokens[i + 1].IsPunct("=") && tokens[i + 2].IsPunct("[")) {
        literal_intros.push_back(i + 2);
      }
    }
    for (const size_t intro : literal_intros) {
      Lambda lambda;
      if (ParseLambda(tokens, intro, &lambda)) {
        ScanLambdaBody(rel, tokens, comments, lambda);
      }
    }
  }

  /// Rule 4: expensive work inside a MutexLock critical section. The
  /// section runs from the `MutexLock guard(...)` declaration to the
  /// end of its enclosing block.
  void CheckLockExpensive(const std::string& rel,
                          std::span<const Token> tokens,
                          const std::vector<Comment>& comments) {
    int depth = 0;
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].IsPunct("{")) ++depth;
      if (tokens[i].IsPunct("}")) --depth;
      if (!tokens[i].IsIdent("MutexLock") ||
          tokens[i + 1].kind != TokenKind::kIdentifier) {
        continue;  // class mentions / ctor decls, not a guard declaration
      }
      const size_t decl_line = tokens[i].line;
      int section_depth = depth;
      for (size_t j = i + 2; j < tokens.size(); ++j) {
        if (tokens[j].IsPunct("{")) ++section_depth;
        if (tokens[j].IsPunct("}") && --section_depth < depth) break;
        if (tokens[j].kind == TokenKind::kIdentifier &&
            Contains(kExpensiveInLock, tokens[j].text)) {
          Report(rel, comments, tokens[j].line, "lock-expensive",
                 "'" + tokens[j].text +
                     "' inside a MutexLock scope (held since line " +
                     std::to_string(decl_line) +
                     "): I/O, formatting, and pool submission do not "
                     "belong in a critical section; snapshot under the "
                     "lock, then format/publish outside it",
                 decl_line);
        }
      }
    }
  }

  /// Rule 5: order-sensitive floating reductions outside src/stats/.
  void CheckFloatReduction(const std::string& rel,
                           std::span<const Token> tokens,
                           const std::vector<Comment>& comments) {
    for (const Token& token : tokens) {
      if (token.kind != TokenKind::kIdentifier) continue;
      if (token.text != "accumulate" && token.text != "reduce" &&
          token.text != "transform_reduce" && token.text != "inner_product") {
        continue;
      }
      Report(rel, comments, token.line, "float-reduction",
             "'std::" + token.text +
                 "' outside src/stats/: floating-point addition is not "
                 "associative, so reduction order changes exported "
                 "numbers; use the fixed-order helpers in stats/");
    }
  }

  fs::path root_;
  Reporter reporter_{"fairlaw_detcheck", "detcheck"};
};

}  // namespace

int main(int argc, char** argv) {
  std::string root_flag = ".";
  std::string json_path;
  std::string self_test;
  bool verbose = false;
  fairlaw::cli::FlagSet flags(
      "fairlaw_detcheck", "",
      "Determinism / lock-discipline static analysis for the parallel\n"
      "audit stack (see the header of tools/fairlaw_detcheck.cc for the\n"
      "rule set and the `detcheck: allow-<rule>` escape convention).\n"
      "exit codes: 0 clean, 1 findings, 2 usage or I/O error");
  flags.Add("root", &root_flag, "tree to scan");
  flags.Section("output");
  flags.Add("json", &json_path, "write the findings artifact to this path");
  flags.Add("self-test", &self_test,
            "comma-separated rule names; exit 0 iff exactly these rules "
            "produce findings (fixture tests)");
  flags.Add("verbose", &verbose, "print the finding count even when clean");
  fairlaw::Result<fairlaw::cli::ParseResult> parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "fairlaw_detcheck: %s\n\n%s",
                 parsed.status().message().c_str(), flags.Help().c_str());
    return 2;
  }
  if (parsed->help) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!parsed->positionals.empty()) {
    std::fprintf(stderr, "fairlaw_detcheck: unexpected argument '%s'\n",
                 parsed->positionals[0].c_str());
    return 2;
  }
  const fs::path root(root_flag);
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "fairlaw_detcheck: root '%s' is not a directory\n",
                 root.string().c_str());
    return 2;
  }

  DetChecker checker(root);
  Reporter& reporter = checker.Run();
  reporter.PrintFindings(verbose);
  if (!json_path.empty() && !reporter.WriteArtifact(json_path)) return 2;
  if (!self_test.empty()) return reporter.SelfTestMatches(self_test) ? 0 : 1;
  return reporter.Sorted().empty() ? 0 : 1;
}
