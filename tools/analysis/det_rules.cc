// Determinism and lock-discipline rules (family `detcheck`) over src/
// and tools/. They guard the repo's load-bearing guarantee that audit
// findings, serve responses, and obs exports are byte-identical for
// any thread/chunk configuration — the
// reproducibility bar that lets a regulator treat an audit as evidence
// rather than a one-off run. Each rule rejects a construct that can
// silently leak scheduling, hashing, or environment state into results.
//
//   unordered-iteration
//        Range-for or .begin()/.cbegin() iteration over a name declared
//        std::unordered_map/std::unordered_set in the output-contributing
//        trees (src/audit, src/metrics, src/stats, src/obs, src/legal,
//        src/causal). Iterate a sorted view or a first-seen-order index
//        (stats::FirstSeenMap) instead.
//   entropy
//        Unsanctioned randomness/time/environment sources anywhere but
//        src/obs/: rand, random_device, std engines, system_clock,
//        getenv, time(/clock( calls, ... Randomness flows through the
//        counter-based stats::Rng streams, timing through
//        obs::MonotonicNowNs().
//   merge-order
//        Accumulation into by-reference-captured state (compound
//        assignment, ++/--, container push/insert) from a worker lambda
//        handed to ThreadPool::Submit/ParallelFor, including lambdas
//        named at the call site. Workers write their own slot or hand
//        (seq, value) pairs to an aggregator that merges in sequence.
//   lock-expensive
//        I/O, formatting, or pool submission inside a MutexLock scope.
//        -Wthread-safety proves the lock is held; this rule keeps the
//        critical section short and allocation-light.
//   float-reduction
//        std::accumulate / reduce / transform_reduce / inner_product
//        outside src/stats/, which owns the fixed-order reductions.
//   obs-read-in-output
//        A read of an obs probe (GetCounter(...)->Value(), a Counter* or
//        Histogram* handle's Value/Count/Sum/BucketCount) in src/ outside
//        src/obs/. Probes are process-global and read 0 under
//        FAIRLAW_OBS=off, so a response or report built from one depends
//        on the kill switch and on earlier activity in the process. Keep
//        the count in the object that owns it and mirror it into obs.
#include <algorithm>
#include <string>
#include <vector>

#include "tools/analysis/check.h"

namespace fairlaw::analysis {
namespace {

/// Identifiers that smuggle in nondeterminism. `time` and `clock` are
/// only flagged as calls (identifier followed by '(').
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

/// Calls too expensive for a critical section: I/O, pool submission,
/// and formatting/allocation-heavy entry points.
constexpr std::string_view kExpensiveInLock[] = {
    "Submit",  "ParallelFor", "printf",  "fprintf",    "fputs",
    "fwrite",  "fopen",       "fflush",  "ifstream",   "ofstream",
    "fstream", "getline",     "system",  "cout",       "cerr",
    "clog",    "to_string",   "ExportJson", "LoadCsv", "ReadFile",
    "WriteFile", "Flush",     "sleep_for",
};

/// Container members whose call from a worker appends in completion
/// order.
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

/// Probe accessors and the methods that read a probe's value.
constexpr std::string_view kProbeGetters[] = {"GetCounter", "GetHistogram"};
constexpr std::string_view kProbeTypes[] = {"Counter", "Histogram"};
constexpr std::string_view kProbeReads[] = {"Value", "Count", "Sum",
                                            "BucketCount"};

template <size_t N>
bool Contains(const std::string_view (&arr)[N], std::string_view value) {
  return std::find(std::begin(arr), std::end(arr), value) != std::end(arr);
}

bool InDetTrees(const SourceFile& file) {
  return (file.Under("src/") || file.Under("tools/")) &&
         !file.rel.ends_with(".cpp");
}

bool InOutputTrees(const SourceFile& file) {
  for (const std::string_view tree :
       {"src/audit/", "src/metrics/", "src/stats/", "src/obs/", "src/legal/",
        "src/causal/"}) {
    if (file.Under(tree)) return true;
  }
  return false;
}

/// Names declared with type std::unordered_map<...> or
/// std::unordered_set<...>: the first identifier after the template
/// argument list and any &/* sigils.
std::vector<std::string> UnorderedNames(std::span<const Token> tokens) {
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

void CheckUnorderedIteration(const Rule& self, const RuleInput& in,
                             Reporter& out) {
  if (!in.file->Mentions({"unordered_map", "unordered_set"})) return;
  const std::span<const Token> tokens = in.file->tokens();
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
        out.Report(self, *in.file, tokens[i].line,
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
      out.Report(self, *in.file, tokens[i].line,
                 "iterator over std::unordered_* '" + tokens[i].text +
                     "': hash iteration order is implementation-defined and "
                     "leaks into merged/exported results");
    }
  }
}

void CheckEntropy(const Rule& self, const RuleInput& in, Reporter& out) {
  if (!in.file->MentionsAny(kEntropyIdents) &&
      !in.file->MentionsAny(kEntropyCallIdents)) {
    return;
  }
  const std::span<const Token> tokens = in.file->tokens();
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kIdentifier) continue;
    const bool named = Contains(kEntropyIdents, token.text);
    const bool call = Contains(kEntropyCallIdents, token.text) &&
                      i + 1 < tokens.size() && tokens[i + 1].IsPunct("(");
    if (!named && !call) continue;
    out.Report(self, *in.file, token.line,
               "'" + token.text +
                   "' is an unsanctioned entropy/time source: randomness "
                   "goes through the counter-based SplitMix64 streams "
                   "(stats::Rng), timing through obs::MonotonicNowNs(), so "
                   "results depend only on (seed, input), never on the "
                   "host, schedule, or wall clock");
  }
}

/// What a worker lambda can write: its by-reference captures, and the
/// names it declares itself.
struct Captures {
  bool default_ref = false;
  std::vector<std::string> by_ref;
  std::vector<std::string> locals;  // params + declared-in-body names
};

/// Reads the capture list and parameter names, then scans the body for
/// local declarations: `Type name`, `Tmpl<...> name`, and `Type& name`
/// shapes mark `name` as local, so a worker accumulating into its own
/// stack variable is not flagged.
Captures ReadCaptures(std::span<const Token> tokens,
                      const WorkerLambda& lambda) {
  Captures out;
  // Capture list: [&], [&a, b], [=, &c], [this, &d] ...
  for (size_t j = lambda.intro + 1; j < lambda.intro_close; ++j) {
    if (!tokens[j].IsPunct("&")) continue;
    if (j + 1 < lambda.intro_close &&
        tokens[j + 1].kind == TokenKind::kIdentifier) {
      out.by_ref.push_back(tokens[j + 1].text);
      ++j;
    } else {
      out.default_ref = true;
    }
  }
  if (lambda.params_open != 0) {
    // Each parameter's name is the identifier right before ',' or ')'.
    const size_t close = MatchingClose(tokens, lambda.params_open);
    for (size_t k = lambda.params_open + 2; k <= close; ++k) {
      if ((tokens[k].IsPunct(",") || k == close) &&
          tokens[k - 1].kind == TokenKind::kIdentifier) {
        out.locals.push_back(tokens[k - 1].text);
      }
    }
  }
  for (size_t j = lambda.body_open + 1; j < lambda.body_close; ++j) {
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
      out.locals.push_back(tokens[j].text);
    }
  }
  return out;
}

/// True when `name` may be written from outside the worker: captured by
/// reference explicitly, or visible through a [&] default and not
/// declared locally.
bool IsSharedWrite(const Captures& captures, const std::string& name) {
  auto has = [&name](const std::vector<std::string>& names) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  if (has(captures.locals)) return false;
  return has(captures.by_ref) || captures.default_ref;
}

void CheckMergeOrder(const Rule& self, const RuleInput& in, Reporter& out) {
  if (!in.file->Mentions({"Submit", "ParallelFor"})) return;
  const std::span<const Token> tokens = in.file->tokens();
  for (const WorkerLambda& lambda : WorkerLambdas(tokens)) {
    const Captures captures = ReadCaptures(tokens, lambda);
    for (size_t j = lambda.body_open + 1; j < lambda.body_close; ++j) {
      const Token& token = tokens[j];
      std::string written;
      size_t op_index = 0;
      if (token.kind == TokenKind::kIdentifier &&
          tokens[j + 1].kind == TokenKind::kPunct &&
          Contains(kCompoundOps, tokens[j + 1].text)) {
        written = token.text;  // x += ..., x++
        op_index = j;
      } else if (token.kind == TokenKind::kPunct &&
                 (token.text == "++" || token.text == "--") &&
                 tokens[j + 1].kind == TokenKind::kIdentifier) {
        written = tokens[j + 1].text;  // ++x
        op_index = j + 1;
      } else if (token.kind == TokenKind::kIdentifier &&
                 tokens[j + 1].IsPunct(".") &&
                 tokens[j + 2].kind == TokenKind::kIdentifier &&
                 Contains(kAppendMembers, tokens[j + 2].text) &&
                 j + 3 < tokens.size() && tokens[j + 3].IsPunct("(")) {
        written = token.text;  // x.push_back(...)
        op_index = j;
      } else {
        continue;
      }
      if (!IsSharedWrite(captures, written)) continue;
      out.Report(self, *in.file, tokens[op_index].line,
                 "worker lambda accumulates into captured-by-reference '" +
                     written +
                     "': completion order is nondeterministic, so write a "
                     "per-task slot (results[i] = ...) or hand (seq, value) "
                     "to a mutex-guarded aggregator that merges in sequence "
                     "order (the EvaluateMetrics idiom)");
    }
  }
}

/// The section runs from the `MutexLock guard(...)` declaration to the
/// end of its enclosing block.
void CheckLockExpensive(const Rule& self, const RuleInput& in,
                        Reporter& out) {
  if (!in.file->Mentions({"MutexLock"})) return;
  const std::span<const Token> tokens = in.file->tokens();
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
        out.Report(self, *in.file, tokens[j].line,
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

void CheckFloatReduction(const Rule& self, const RuleInput& in,
                         Reporter& out) {
  if (!in.file->Mentions(
          {"accumulate", "reduce", "transform_reduce", "inner_product"})) {
    return;
  }
  for (const Token& token : in.file->tokens()) {
    if (token.kind != TokenKind::kIdentifier) continue;
    if (token.text != "accumulate" && token.text != "reduce" &&
        token.text != "transform_reduce" && token.text != "inner_product") {
      continue;
    }
    out.Report(self, *in.file, token.line,
               "'std::" + token.text +
                   "' outside src/stats/: floating-point addition is not "
                   "associative, so reduction order changes exported "
                   "numbers; use the fixed-order helpers in stats/");
  }
}

void CheckObsReadInOutput(const Rule& self, const RuleInput& in,
                          Reporter& out) {
  if (!in.file->MentionsAny(kProbeReads)) return;
  const std::span<const Token> tokens = in.file->tokens();
  // Probe handles: `Counter* name` declarations and `name = GetCounter(`
  // bindings.
  std::vector<std::string> handles;
  for (size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier &&
        Contains(kProbeTypes, tokens[i].text) && tokens[i + 1].IsPunct("*") &&
        tokens[i + 2].kind == TokenKind::kIdentifier) {
      handles.push_back(tokens[i + 2].text);
    }
    if (tokens[i].kind == TokenKind::kIdentifier && tokens[i + 1].IsPunct("=")) {
      size_t k = i + 2;
      while (k + 1 < tokens.size() && tokens[k].kind == TokenKind::kIdentifier &&
             tokens[k + 1].IsPunct("::")) {
        k += 2;  // obs::
      }
      if (k < tokens.size() && tokens[k].kind == TokenKind::kIdentifier &&
          Contains(kProbeGetters, tokens[k].text)) {
        handles.push_back(tokens[i].text);
      }
    }
  }
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!tokens[i + 1].IsPunct("->") ||
        tokens[i + 2].kind != TokenKind::kIdentifier ||
        !Contains(kProbeReads, tokens[i + 2].text)) {
      continue;
    }
    std::string probe;
    if (tokens[i].IsPunct(")")) {
      // GetCounter("name")->Value(): find the call this ')' closes.
      size_t open = i;
      int depth = 0;
      for (size_t k = i + 1; k-- > 0;) {
        if (tokens[k].IsPunct(")")) ++depth;
        if (tokens[k].IsPunct("(") && --depth == 0) {
          open = k;
          break;
        }
      }
      if (open == 0 || tokens[open - 1].kind != TokenKind::kIdentifier ||
          !Contains(kProbeGetters, tokens[open - 1].text)) {
        continue;
      }
      probe = tokens[open - 1].text + "(...)";
    } else if (tokens[i].kind == TokenKind::kIdentifier &&
               std::find(handles.begin(), handles.end(), tokens[i].text) !=
                   handles.end()) {
      probe = tokens[i].text;
    } else {
      continue;
    }
    out.Report(self, *in.file, tokens[i + 2].line,
               "'" + probe + "->" + tokens[i + 2].text +
                   "()' reads a process-global obs probe outside src/obs/: "
                   "it reads 0 under FAIRLAW_OBS=off and counts every "
                   "earlier user in the process, so output built from it "
                   "depends on more than its input; keep the count in the "
                   "object that owns it and mirror it into obs");
  }
}

constexpr Rule kDetRules[] = {
    {"unordered-iteration", "detcheck", RuleKind::kTokenStream,
     [](const SourceFile& f) { return InDetTrees(f) && InOutputTrees(f); },
     CheckUnorderedIteration},
    {"entropy", "detcheck", RuleKind::kTokenStream,
     [](const SourceFile& f) { return InDetTrees(f) && !f.Under("src/obs/"); },
     CheckEntropy},
    {"merge-order", "detcheck", RuleKind::kTokenStream, InDetTrees,
     CheckMergeOrder},
    {"lock-expensive", "detcheck", RuleKind::kTokenStream, InDetTrees,
     CheckLockExpensive},
    {"float-reduction", "detcheck", RuleKind::kTokenStream,
     [](const SourceFile& f) { return InDetTrees(f) && !f.Under("src/stats/"); },
     CheckFloatReduction},
    {"obs-read-in-output", "detcheck", RuleKind::kTokenStream,
     [](const SourceFile& f) {
       return f.Under("src/") && !f.Under("src/obs/");
     },
     CheckObsReadInOutput},
};

}  // namespace

std::span<const Rule> DetRules() { return kDetRules; }

}  // namespace fairlaw::analysis
