#ifndef FAIRLAW_TOOLS_ANALYSIS_CHECK_H_
#define FAIRLAW_TOOLS_ANALYSIS_CHECK_H_

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/analysis/index.h"
#include "tools/analysis/lexer.h"

namespace fairlaw {
class ThreadPool;
}  // namespace fairlaw

/// fairlaw::analysis — the rule registry and single-pass driver behind
/// fairlaw_check.
///
/// One run walks the tree once (src/, tools/, tests/, bench/,
/// examples/; directories named *_fixture are skipped), lexes every
/// .h/.cc/.cpp file exactly once, builds the two cross-file views the
/// rules need — the signature index of fallible declarations in
/// src/**/*.h and the project include graph — and then runs every
/// selected rule against that shared state. A rule is one row of a
/// table: its name, its family, its kind, the files it reads, and its
/// check function.
///
/// Every finding shares one contract: `file:line: rule: message`
/// records in canonical (file, line, rule) order; an escape hatch is a
/// `<family>: allow-<rule>` comment on the flagged line or the line
/// above (suppressions are counted, never silently dropped); the
/// machine-readable artifact is one JSON object
/// {"tool":"fairlaw_check","schema_version":1,"findings":[{file,line,
/// rule,message}],"count":N,"suppressed":N}, byte-identical for a given
/// tree.
namespace fairlaw::analysis {

/// Sorted, duplicate-free identifier spellings (views into tokens).
using IdentSet = std::vector<std::string_view>;

/// One source file under the scanned root, read and lexed once.
struct SourceFile {
  std::string rel;  // root-relative path with generic (/) separators
  LexResult lex;
  IdentSet idents;  // every identifier the file spells

  bool Under(std::string_view prefix) const { return rel.starts_with(prefix); }
  bool IsHeader() const { return rel.ends_with(".h"); }
  std::span<const Token> tokens() const { return lex.tokens; }

  /// True when the file spells any of `names` as an identifier; rules
  /// use it to skip files that cannot contain their pattern.
  template <typename Names>
  bool MentionsAny(const Names& names) const;
  bool Mentions(std::initializer_list<std::string_view> names) const {
    return MentionsAny(names);
  }
};

/// One project `#include "..."` resolved against the scanned files.
struct IncludeEdge {
  std::string target;  // root-relative path of the included file
  size_t line = 0;
  bool pragma_keep = false;    // `// IWYU pragma: keep`
  bool pragma_export = false;  // `// IWYU pragma: export`
};

/// What the include-graph rules know about one file.
struct FileDeps {
  const SourceFile* file = nullptr;
  std::string module;  // "base", ..., "tools"
  std::vector<IncludeEdge> includes;
  /// Lenient provision set (declared names + call heads + constants);
  /// drives unused-include, where over-inclusion only makes it quieter.
  std::set<std::string_view> provided;
  /// Strict provision set: names declared here (class / struct / enum /
  /// union / using / #define). Drives transitive-include, where
  /// over-inclusion would mean false positives.
  std::set<std::string_view> declared;
  IdentSet used;  // identifiers referenced outside #include lines
};

/// File- and module-level include graph over every scanned file.
struct IncludeGraph {
  std::map<std::string, FileDeps> files;  // by rel path
  std::map<std::pair<std::string, std::string>, int> module_edges;
};

/// The module graph (nodes with ranks and file counts, module edges
/// with include counts, every file-level edge) as JSON / Graphviz.
std::string GraphJson(const IncludeGraph& graph);
std::string GraphDot(const IncludeGraph& graph);

/// Everything a run reads: the files plus the views built from them.
struct SourceTree {
  std::vector<SourceFile> files;  // sorted by rel
  SignatureIndex index;           // over src/**/*.h
  IncludeGraph graph;
};

enum class RuleKind {
  kTokenStream,   // one file's tokens and comments
  kHeaderIndex,   // one file plus the cross-file signature index
  kIncludeGraph,  // the include graph of the whole tree, once per run
};

struct Finding {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

struct Rule;

/// Findings of one run: applies the escape-marker convention and
/// renders the canonical text and JSON forms.
class Reporter {
 public:
  /// Records a finding of `rule` at `line` of `file` unless a
  /// `<family>: allow-<rule>` marker covers `line` or, when non-zero,
  /// `anchor_line` (e.g. the MutexLock that opened a critical section).
  void Report(const Rule& rule, const SourceFile& file, size_t line,
              std::string message, size_t anchor_line = 0);

  /// Records a finding that has no source comment to carry a marker
  /// (a cycle in the module graph).
  void ReportAt(const Rule& rule, std::string file, size_t line,
                std::string message);

  /// Appends `other`'s findings and suppression count.
  void Merge(const Reporter& other);

  /// Stable-sorts by (file, line, rule): filesystem order is
  /// platform-defined, so every output goes through this order.
  void Sort();

  const std::vector<Finding>& findings() const { return findings_; }

  /// One `file:line: rule: message` line per finding, then
  /// `N finding(s), M suppressed`. Fixture expectations use this form.
  std::string Text() const;

  /// The canonical artifact (no trailing newline).
  std::string Json() const;

 private:
  std::vector<Finding> findings_;
  size_t suppressed_ = 0;
};

/// What a check function sees: the file under check (null for
/// include-graph rules, which run once) and the shared tree.
struct RuleInput {
  const SourceFile* file = nullptr;
  const SourceTree& tree;
};

/// One row of the rule registry.
struct Rule {
  std::string_view name;    // finding id and --rules= selector
  std::string_view family;  // escape-marker prefix and --rules= group
  RuleKind kind = RuleKind::kTokenStream;
  /// Per-file kinds: the files this rule reads. Unused for graph rules.
  bool (*applies)(const SourceFile& file) = nullptr;
  void (*check)(const Rule& self, const RuleInput& in, Reporter& out) = nullptr;
};

/// The registry, grouped by family (lint, detcheck, flowcheck, deps).
std::span<const Rule> LintRules();
std::span<const Rule> DetRules();
std::span<const Rule> FlowRules();
std::span<const Rule> DepsRules();
std::vector<const Rule*> AllRules();

/// Resolves rule and family names to registry rows, in registry order. An unknown name is an error (returned as its text).
bool SelectRules(const std::vector<std::string>& names,
                 std::vector<const Rule*>* selected, std::string* error);

/// Walks the tree under `root` once and lexes each file once (files in
/// parallel on `pool`), then builds the signature index and include
/// graph when some selected rule needs them.
SourceTree LoadTree(const std::filesystem::path& root,
                    std::span<const Rule* const> rules, ThreadPool& pool);

/// Runs `rules` over `tree`; findings come back sorted, identical for
/// any pool size.
Reporter RunRules(const SourceTree& tree, std::span<const Rule* const> rules,
                  ThreadPool& pool);

/// Builds the include graph over `files` (fills FileDeps per file, in
/// parallel on `pool`, and the module edge counts). The graph points
/// into `files`, which must outlive it.
IncludeGraph BuildIncludeGraph(std::span<const SourceFile> files,
                               ThreadPool& pool);

inline bool HasIdent(const IdentSet& idents, std::string_view name) {
  return std::binary_search(idents.begin(), idents.end(), name);
}

template <typename Names>
bool SourceFile::MentionsAny(const Names& names) const {
  for (const std::string_view name : names) {
    if (HasIdent(idents, name)) return true;
  }
  return false;
}

/// Token positions of a lambda handed to ThreadPool::Submit/ParallelFor.
struct WorkerLambda {
  size_t intro = 0;        // '[' of the capture list
  size_t intro_close = 0;  // its ']'
  size_t params_open = 0;  // '(' of the parameter list; 0 when absent
  size_t body_open = 0;    // '{'
  size_t body_close = 0;   // '}'
};

/// Shared worker-lambda finder for the rules that police code handed to
/// the pool: every lambda literal in argument position, plus lambdas
/// assigned to a name that is later passed as a task (`auto task =
/// [&](...) {...}; pool.ParallelFor(n, task);`).
std::vector<WorkerLambda> WorkerLambdas(std::span<const Token> tokens);

/// `text` with '"' and '\\' backslash-escaped, for the JSON artifacts.
std::string JsonEscape(std::string_view text);

}  // namespace fairlaw::analysis

#endif  // FAIRLAW_TOOLS_ANALYSIS_CHECK_H_
