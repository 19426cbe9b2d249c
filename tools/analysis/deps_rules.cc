// Layering and include-graph rules (family `deps`). Every project
// #include in src/, tools/, tests/, bench/, and examples/ becomes an edge
// of the file- and module-level include graphs, checked against the
// declared layering DAG:
//
//   rank 0  base                          (no dependencies)
//   rank 1  obs, stats
//   rank 2  data
//   rank 3  metrics, legal, causal
//   rank 4  audit, mitigation, ml, simulation, serve
//   rank 5  core                          (API aggregation: suite)
//   rank 6  tools, tests, bench, examples
//
// A file may include headers of its own module, of a lower-ranked
// module, or of a same-ranked module (same-rank edges are legal as long
// as the module graph stays acyclic — e.g. mitigation -> ml). `core` may
// depend on everything below rank 6, and nothing inside src/ may depend
// on it.
//
//   unknown-module      a file whose module is not in the DAG.
//   layering            an include of a strictly higher-ranked module.
//   include-cycle       a cycle in the file-level include graph.
//   module-cycle        a cycle in the module graph (A -> B and B -> A
//                       through different files, which no single
//                       file-level cycle shows).
//   unused-include      IWYU-lite: a project header none of whose
//                       identifiers the includer references.
//                       `// IWYU pragma: keep` exempts an include;
//                       `// IWYU pragma: export` marks a deliberate
//                       re-export (umbrella headers).
//   transitive-include  IWYU-lite: a src/ file uses an identifier only a
//                       transitively included header declares.
//   unreached-module    a src/ header that no file under tools/, bench/,
//                       or examples/ reaches over include edges (a
//                       reached x.h also reaches its x.cc); code only
//                       its own tests call. Silent in a tree with no
//                       such root files.
//   unreached-function  a free or static member function declared in a
//                       src/ header whose name no file under tools/,
//                       bench/, or examples/, no other src/ file, and
//                       nothing in its own x.h/x.cc but its declarations
//                       and definitions spells as an identifier. Names
//                       are matched as tokens, so all overloads count as
//                       one name and any same-named symbol counts as a
//                       use: the rule can miss dead code but never flags
//                       live code. Silent in a tree with no root files.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "tools/analysis/check.h"

namespace fairlaw::analysis {
namespace {

struct ModuleSpec {
  std::string_view name;
  int rank;
};

// The declared layering DAG. Keep in sync with the "Layering" section of
// DESIGN.md; a src/ module missing here is itself a finding.
constexpr ModuleSpec kModules[] = {
    {"base", 0},       {"obs", 1},        {"stats", 1},
    {"data", 2},       {"metrics", 3},    {"legal", 3},
    {"causal", 3},     {"audit", 4},      {"mitigation", 4},
    {"ml", 4},         {"simulation", 4}, {"serve", 4},
    {"core", 5},
    {"tools", 6},      {"tests", 6},      {"bench", 6},
    {"examples", 6},
};

/// Rank of `module` in the declared layering DAG, or -1 if undeclared.
int ModuleRank(std::string_view module) {
  for (const ModuleSpec& spec : kModules) {
    if (module == spec.name) return spec.rank;
  }
  return -1;
}

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "alignas",   "alignof",  "auto",     "bool",      "break",
      "case",      "catch",    "char",     "class",     "const",
      "consteval", "constexpr", "continue", "decltype",  "default",
      "delete",    "do",       "double",   "else",      "enum",
      "explicit",  "export",   "extern",   "false",     "final",
      "float",     "for",      "friend",   "goto",      "if",
      "inline",    "int",      "long",     "mutable",   "namespace",
      "new",       "noexcept", "nullptr",  "operator",  "override",
      "private",   "protected", "public",  "requires",  "return",
      "short",     "signed",   "sizeof",   "static",    "struct",
      "switch",    "template", "this",     "throw",     "true",
      "try",       "typedef",  "typename", "union",     "unsigned",
      "using",     "virtual",  "void",     "volatile",  "while",
  };
  return kKeywords;
}

std::string ModuleOf(const std::string& rel) {
  if (rel.starts_with("src/")) {
    const size_t slash = rel.find('/', 4);
    if (slash != std::string::npos) return rel.substr(4, slash - 4);
    return "src";  // stray file directly under src/
  }
  const size_t slash = rel.find('/');
  return slash == std::string::npos ? rel : rel.substr(0, slash);
}

/// First character of the token after `i` as the source spells it
/// ('"' for a string literal), or '\0' at end of file.
char NextChar(std::span<const Token> tokens, size_t i) {
  if (i + 1 >= tokens.size()) return '\0';
  const Token& next = tokens[i + 1];
  switch (next.kind) {
    case TokenKind::kString:
      return '"';
    case TokenKind::kCharLiteral:
      return '\'';
    case TokenKind::kEndOfFile:
      return '\0';
    default:
      return next.text.empty() ? '\0' : next.text[0];
  }
}

bool IsDirective(std::span<const Token> tokens, size_t i,
                 std::string_view directive) {
  return i + 1 < tokens.size() && tokens[i].IsPunct("#") &&
         tokens[i + 1].IsIdent(directive);
}

/// Heuristic identifier-provision scan of a header. `declared` gets the
/// names it introduces (class/struct/enum/union, using-aliases,
/// #define); `provided` additionally gets every call/declaration head
/// (identifier followed by '(') and constant-style names (kCamel /
/// ALL_CAPS).
void ExtractProvided(std::span<const Token> tokens, FileDeps* deps) {
  std::vector<size_t> idents;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier) idents.push_back(i);
  }
  auto provide = [deps](std::string_view name, bool declared) {
    deps->provided.insert(name);
    if (declared) deps->declared.insert(name);
  };
  for (size_t t = 0; t < idents.size(); ++t) {
    const std::string& tok = tokens[idents[t]].text;
    if (tok == "class" || tok == "struct" || tok == "enum" || tok == "union") {
      // The declared name is the first following identifier that is not
      // a macro invocation (an attribute macro like FAIRLAW_CAPABILITY).
      for (size_t j = t + 1; j < idents.size() && j < t + 5; ++j) {
        const std::string& cand = tokens[idents[j]].text;
        if (Keywords().count(cand) > 0) continue;
        if (NextChar(tokens, idents[j]) == '(') continue;
        provide(cand, true);
        break;
      }
      continue;
    }
    if (tok == "using") {
      // `using X = ...;`, `using ns::X;`; skip `using namespace ...;`.
      if (t + 1 < idents.size() && tokens[idents[t + 1]].text == "namespace") {
        continue;
      }
      std::string_view last;
      for (size_t j = t + 1; j < idents.size(); ++j) {
        last = tokens[idents[j]].text;
        const char after = NextChar(tokens, idents[j]);
        if (after == '=' || after == ';') break;
      }
      if (!last.empty()) provide(last, true);
      continue;
    }
    if (Keywords().count(tok) > 0) continue;
    if (NextChar(tokens, idents[t]) == '(') {
      provide(tok, false);
      continue;
    }
    const bool k_camel = tok.size() >= 2 && tok[0] == 'k' &&
                         std::isupper(static_cast<unsigned char>(tok[1]));
    const bool all_caps =
        tok.size() >= 2 && std::none_of(tok.begin(), tok.end(), [](char c) {
          return std::islower(static_cast<unsigned char>(c)) != 0;
        });
    if (k_camel || all_caps) provide(tok, false);
  }
  // #define NAME (include guards excluded).
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (IsDirective(tokens, i, "define") &&
        tokens[i + 2].kind == TokenKind::kIdentifier &&
        !tokens[i + 2].text.ends_with("_H_")) {
      provide(tokens[i + 2].text, true);
    }
  }
}

/// `#include "..."` directives resolved against the scanned files (src/
/// for library headers, the root for anything else), and every
/// identifier referenced outside #include lines.
void ExtractIncludesAndUses(const SourceFile& file,
                            const std::set<std::string>& known,
                            FileDeps* deps) {
  const std::span<const Token> tokens = file.tokens();
  std::vector<size_t> include_lines;   // ascending: tokens are in order
  std::set<std::string_view> path_words;  // identifiers on those lines
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier && !include_lines.empty() &&
        tokens[i].line == include_lines.back()) {
      path_words.insert(tokens[i].text);
    }
    if (!IsDirective(tokens, i, "include")) continue;
    const size_t line = tokens[i].line;
    include_lines.push_back(line);
    if (tokens[i + 2].kind != TokenKind::kString) continue;  // <system>
    const std::string& target = tokens[i + 2].text;
    IncludeEdge edge;
    edge.line = line;
    if (known.count("src/" + target) > 0) {
      edge.target = "src/" + target;
    } else if (known.count(target) > 0) {
      edge.target = target;
    } else {
      continue;  // unresolvable (generated or external); not ours to judge
    }
    for (const Comment& comment : file.lex.comments) {
      if (comment.line != line) continue;
      edge.pragma_keep |= comment.text.find("IWYU pragma: keep") !=
                          std::string::npos;
      edge.pragma_export |= comment.text.find("IWYU pragma: export") !=
                            std::string::npos;
    }
    deps->includes.push_back(std::move(edge));
  }
  deps->used = file.idents;
  // `#include <vector>` spells a path, not a use: drop the words seen on
  // include lines unless the file also spells them in code.
  for (const Token& token : tokens) {
    if (path_words.empty()) break;
    if (token.kind == TokenKind::kIdentifier &&
        !std::binary_search(include_lines.begin(), include_lines.end(),
                            token.line)) {
      path_words.erase(token.text);
    }
  }
  for (const std::string_view word : path_words) {
    std::erase(deps->used, word);
  }
}

bool IsOwnHeader(const FileDeps& deps, const std::string& target) {
  const std::string& rel = deps.file->rel;
  if (deps.file->IsHeader()) return false;
  const size_t dot = rel.rfind('.');
  return dot != std::string::npos && target == rel.substr(0, dot) + ".h";
}

/// Adds `rel` and, recursively, everything it re-exports.
void CollectExportClosure(const IncludeGraph& graph, const std::string& rel,
                          std::set<std::string>* out) {
  if (!out->insert(rel).second) return;
  const auto it = graph.files.find(rel);
  if (it == graph.files.end()) return;
  for (const IncludeEdge& edge : it->second.includes) {
    if (edge.pragma_export) CollectExportClosure(graph, edge.target, out);
  }
}

void CollectReachable(const IncludeGraph& graph, const std::string& rel,
                      std::set<std::string>* out) {
  const auto it = graph.files.find(rel);
  if (it == graph.files.end()) return;
  for (const IncludeEdge& edge : it->second.includes) {
    if (out->insert(edge.target).second) {
      CollectReachable(graph, edge.target, out);
    }
  }
}

/// "a -> b -> ... -> next" for the cycle `stack` closes at `next`.
std::string CycleChain(const std::vector<std::string>& stack,
                       const std::string& next) {
  std::string chain;
  for (auto s = std::find(stack.begin(), stack.end(), next); s != stack.end();
       ++s) {
    chain += *s + " -> ";
  }
  return chain + next;
}

void CheckUnknownModule(const Rule& self, const RuleInput& in,
                        Reporter& out) {
  for (const auto& [rel, deps] : in.tree.graph.files) {
    if (ModuleRank(deps.module) >= 0) continue;
    out.Report(self, *deps.file, 1,
               "module '" + deps.module +
                   "' is not declared in the layering DAG; add it to "
                   "kModules in tools/analysis/deps_rules.cc and to "
                   "DESIGN.md");
  }
}

void CheckLayering(const Rule& self, const RuleInput& in, Reporter& out) {
  const IncludeGraph& graph = in.tree.graph;
  for (const auto& [rel, deps] : graph.files) {
    const int rank = ModuleRank(deps.module);
    if (rank < 0) continue;  // unknown-module's finding
    for (const IncludeEdge& edge : deps.includes) {
      const std::string& target_module = graph.files.at(edge.target).module;
      const int target_rank = ModuleRank(target_module);
      if (target_rank <= rank) continue;
      out.Report(self, *deps.file, edge.line,
                 "module '" + deps.module + "' (rank " +
                     std::to_string(rank) + ") must not include '" +
                     edge.target + "' from higher-ranked module '" +
                     target_module + "' (rank " +
                     std::to_string(target_rank) +
                     "); see the layering DAG in DESIGN.md");
    }
  }
}

void CheckIncludeCycles(const Rule& self, const RuleInput& in, Reporter& out) {
  const IncludeGraph& graph = in.tree.graph;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  auto dfs = [&](auto& recurse, const std::string& rel) -> void {
    color[rel] = 1;
    stack.push_back(rel);
    const FileDeps& deps = graph.files.at(rel);
    for (const IncludeEdge& edge : deps.includes) {
      const int c = color[edge.target];
      if (c == 0) {
        recurse(recurse, edge.target);
      } else if (c == 1) {
        out.Report(self, *deps.file, edge.line,
                   "include cycle: " + CycleChain(stack, edge.target));
      }
    }
    stack.pop_back();
    color[rel] = 2;
  };
  for (const auto& [rel, deps] : graph.files) {
    if (color[rel] == 0) dfs(dfs, rel);
  }
}

/// Upward edges are already layering findings, so any cycle found here
/// runs through same-rank modules.
void CheckModuleCycles(const Rule& self, const RuleInput& in, Reporter& out) {
  std::map<std::string, std::set<std::string>> adjacency;
  for (const auto& [edge, count] : in.tree.graph.module_edges) {
    adjacency[edge.first].insert(edge.second);
  }
  std::map<std::string, int> color;
  std::vector<std::string> stack;
  auto dfs = [&](auto& recurse, const std::string& module) -> void {
    color[module] = 1;
    stack.push_back(module);
    if (const auto it = adjacency.find(module); it != adjacency.end()) {
      for (const std::string& next : it->second) {
        const int c = color[next];
        if (c == 0) {
          recurse(recurse, next);
        } else if (c == 1) {
          out.ReportAt(self, "(module graph)", 0,
                       "module cycle: " + CycleChain(stack, next));
        }
      }
    }
    stack.pop_back();
    color[module] = 2;
  };
  for (const auto& [module, targets] : adjacency) {
    if (color[module] == 0) dfs(dfs, module);
  }
}

void CheckUnusedIncludes(const Rule& self, const RuleInput& in,
                         Reporter& out) {
  const IncludeGraph& graph = in.tree.graph;
  // Identifiers a header makes visible to its includers: its own plus
  // those of the headers it re-exports via IWYU pragma.
  std::map<std::string, std::set<std::string_view>> visible;
  auto provides =
      [&](const std::string& target) -> const std::set<std::string_view>& {
    auto [it, inserted] = visible.try_emplace(target);
    if (inserted) {
      std::set<std::string> closure;
      CollectExportClosure(graph, target, &closure);
      for (const std::string& rel : closure) {
        const std::set<std::string_view>& names = graph.files.at(rel).provided;
        it->second.insert(names.begin(), names.end());
      }
    }
    return it->second;
  };
  for (const auto& [rel, deps] : graph.files) {
    for (const IncludeEdge& edge : deps.includes) {
      if (edge.pragma_keep || edge.pragma_export) continue;
      if (IsOwnHeader(deps, edge.target)) continue;
      const std::set<std::string_view>& names = provides(edge.target);
      const bool used =
          std::any_of(names.begin(), names.end(), [&](std::string_view n) {
            return HasIdent(deps.used, n);
          });
      if (used) continue;
      out.Report(self, *deps.file, edge.line,
                 "'" + edge.target +
                     "' is included but none of its identifiers are "
                     "referenced; drop it or mark it '// IWYU pragma: "
                     "keep' with a reason");
    }
  }
}

/// Conservative on purpose: only names a header truly declares can
/// fire, only when exactly one reachable header declares the name, and
/// x.cc may rely on anything its own x.h includes directly (the
/// associated-header exemption IWYU itself grants).
void CheckTransitiveUse(const Rule& self, const RuleInput& in, Reporter& out) {
  const IncludeGraph& graph = in.tree.graph;
  for (const auto& [rel, deps] : graph.files) {
    if (!rel.starts_with("src/")) continue;

    std::set<std::string> direct;  // direct includes + their re-exports
    for (const IncludeEdge& edge : deps.includes) {
      CollectExportClosure(graph, edge.target, &direct);
      if (IsOwnHeader(deps, edge.target)) {
        for (const IncludeEdge& nested : graph.files.at(edge.target).includes) {
          CollectExportClosure(graph, nested.target, &direct);
        }
      }
    }
    std::set<std::string> reachable;
    CollectReachable(graph, rel, &reachable);
    reachable.erase(rel);

    // The lenient provided set keeps this exemption broad: if a direct
    // include even plausibly supplies the name, stay quiet.
    std::set<std::string_view> direct_provided;
    for (const std::string& d : direct) {
      const std::set<std::string_view>& names = graph.files.at(d).provided;
      direct_provided.insert(names.begin(), names.end());
    }
    // How many reachable headers declare each identifier (uniqueness).
    std::map<std::string_view, int> provider_count;
    for (const std::string& r : reachable) {
      for (const std::string_view ident : graph.files.at(r).declared) {
        provider_count[ident] += 1;
      }
    }

    for (const std::string& target : reachable) {
      if (direct.count(target) > 0 || IsOwnHeader(deps, target)) continue;
      for (const std::string_view ident : graph.files.at(target).declared) {
        if (!HasIdent(deps.used, ident) ||
            direct_provided.count(ident) > 0 ||
            deps.provided.count(ident) > 0 || provider_count[ident] != 1) {
          continue;
        }
        out.Report(self, *deps.file, 1,
                   "uses '" + std::string(ident) +
                       "' provided only by transitively "
                       "included '" + target +
                       "'; include it directly (include what you use)");
        break;  // one diagnostic per missing header
      }
    }
  }
}

/// Every file reached from the tools/, bench/, and examples/ files over
/// include edges, where reaching src/x.h also reaches src/x.cc (the
/// definitions a root links against). Empty when the tree has no roots.
std::set<std::string> ReachedFromRoots(const IncludeGraph& graph) {
  constexpr std::string_view kRoots[] = {"tools", "bench", "examples"};
  std::set<std::string> reached;
  std::vector<std::string> pending;
  auto visit = [&](const std::string& rel) {
    if (graph.files.contains(rel) && reached.insert(rel).second) {
      pending.push_back(rel);
    }
  };
  for (const auto& [rel, deps] : graph.files) {
    if (std::ranges::find(kRoots, deps.module) != std::end(kRoots)) {
      visit(rel);
    }
  }
  while (!pending.empty()) {
    const std::string rel = std::move(pending.back());
    pending.pop_back();
    for (const IncludeEdge& edge : graph.files.at(rel).includes) {
      visit(edge.target);
      if (edge.target.ends_with(".h")) {
        visit(edge.target.substr(0, edge.target.size() - 2) + ".cc");
      }
    }
  }
  return reached;
}

void CheckUnreachedModules(const Rule& self, const RuleInput& in,
                           Reporter& out) {
  const IncludeGraph& graph = in.tree.graph;
  const std::set<std::string> reached = ReachedFromRoots(graph);
  if (reached.empty()) return;
  for (const auto& [rel, deps] : graph.files) {
    if (!rel.starts_with("src/") || !deps.file->IsHeader() ||
        reached.contains(rel)) {
      continue;
    }
    out.Report(self, *deps.file, 1,
               "no file under tools/, bench/ or examples/ reaches '" + rel +
                   "'; wire it into one of them or delete it with its "
                   "tests");
  }
}

enum class ScopeKind { kNamespace, kClass, kBody };

/// One `name(` that declares or defines a function at namespace or
/// class scope.
struct Declarator {
  size_t token = 0;         // index of the name token
  bool reportable = false;  // a free function or a static member
  std::string qualified;    // e.g. "stats::JensenShannon"
};

/// Identifiers that can stand before a call but never before a
/// declarator's name.
bool IsExpressionKeyword(std::string_view word) {
  constexpr std::string_view kWords[] = {
      "return", "case",  "new",      "delete",    "throw",    "else",
      "do",     "goto",  "sizeof",   "alignof",   "decltype", "noexcept",
      "if",     "while", "for",      "switch",    "catch",    "typeid",
      "define", "defined", "co_return", "co_await", "co_yield",
  };
  return std::ranges::find(kWords, word) != std::end(kWords);
}

bool IsMacroName(std::string_view name) {
  return std::none_of(name.begin(), name.end(), [](char c) {
    return std::islower(static_cast<unsigned char>(c)) != 0;
  });
}

/// Every `name(` at namespace or class scope, outside parentheses and
/// initializers, whose name (after any `A::B::` qualifier) follows a
/// type: a declaration or definition rather than a call. Lexical like
/// the signature index: a class head the scan cannot read makes its
/// body a function body, which only hides its statics from the rule.
std::vector<Declarator> FindDeclarators(std::span<const Token> tokens) {
  struct Scope {
    ScopeKind kind;
    std::string name;
    int parens = 0;
    bool saw_static = false;  // in the current declaration
    bool saw_equals = false;  // in the current declaration, at depth 0
  };
  std::vector<Scope> scopes = {{ScopeKind::kNamespace, "", 0}};
  ScopeKind pending = ScopeKind::kBody;
  std::string pending_name;
  size_t directive_line = 0;
  std::vector<Declarator> out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.IsPunct("#") && (i == 0 || tokens[i - 1].line != token.line)) {
      directive_line = token.line;
    }
    if (token.line == directive_line) continue;
    Scope& scope = scopes.back();
    if (token.IsPunct("{")) {
      // Whatever a function body nests is local, never API.
      const ScopeKind kind =
          scope.kind == ScopeKind::kBody ? ScopeKind::kBody : pending;
      scopes.push_back({kind, pending_name, 0});
      pending = ScopeKind::kBody;
      pending_name.clear();
      continue;
    }
    if (token.IsPunct("}") || token.IsPunct(";")) {
      if (token.IsPunct("}") && scopes.size() > 1) scopes.pop_back();
      scopes.back().saw_static = scopes.back().saw_equals = false;
      pending = ScopeKind::kBody;
      pending_name.clear();
      continue;
    }
    if (token.IsPunct("(") || token.IsPunct("[")) ++scope.parens;
    if (token.IsPunct(")") || token.IsPunct("]")) --scope.parens;
    if (scope.kind == ScopeKind::kBody || scope.parens != 0) continue;
    if (token.IsPunct("=")) scope.saw_equals = true;
    if (token.IsPunct(":") && i > 0 &&
        (tokens[i - 1].IsIdent("public") || tokens[i - 1].IsIdent("private") ||
         tokens[i - 1].IsIdent("protected"))) {
      scope.saw_static = scope.saw_equals = false;
    }
    if (token.kind != TokenKind::kIdentifier) continue;
    if (token.IsIdent("static")) scope.saw_static = true;
    if (token.IsIdent("namespace")) {
      size_t j = i + 1;
      std::string name;
      while (j < tokens.size() && (tokens[j].kind == TokenKind::kIdentifier ||
                                   tokens[j].IsPunct("::"))) {
        name += tokens[j++].text;
      }
      if (j < tokens.size() && tokens[j].IsPunct("{")) {
        pending = ScopeKind::kNamespace;
        pending_name = name;
        i = j - 1;
      }
      continue;
    }
    if ((token.IsIdent("class") || token.IsIdent("struct") ||
         token.IsIdent("union")) &&
        !(i > 0 && tokens[i - 1].IsIdent("enum")) && i + 1 < tokens.size() &&
        tokens[i + 1].kind == TokenKind::kIdentifier) {
      // A definition reaches '{' before anything that ends a forward
      // declaration or a template parameter.
      for (size_t j = i + 2; j < tokens.size(); ++j) {
        if (tokens[j].IsPunct("{")) {
          pending = ScopeKind::kClass;
          pending_name = tokens[i + 1].text;
          break;
        }
        if (tokens[j].IsPunct(";") || tokens[j].IsPunct("=") ||
            tokens[j].IsPunct(",") || tokens[j].IsPunct(")") ||
            tokens[j].IsPunct(">") || tokens[j].IsPunct("(")) {
          break;
        }
      }
      continue;
    }
    if (scope.saw_equals || i + 1 >= tokens.size() ||
        !tokens[i + 1].IsPunct("(") || token.IsIdent("operator") ||
        IsMacroName(token.text) || IsExpressionKeyword(token.text)) {
      continue;
    }
    size_t before = i;  // skip an `A::B::` qualifier
    while (before >= 2 && tokens[before - 1].IsPunct("::") &&
           tokens[before - 2].kind == TokenKind::kIdentifier) {
      before -= 2;
    }
    if (before == 0) continue;
    const Token& prev = tokens[before - 1];
    const bool after_type =
        (prev.kind == TokenKind::kIdentifier &&
         !IsExpressionKeyword(prev.text)) ||
        prev.IsPunct(">") || prev.IsPunct(">>") || prev.IsPunct("*") ||
        prev.IsPunct("&") || prev.IsPunct("&&");
    if (!after_type) continue;
    Declarator decl;
    decl.token = i;
    decl.reportable = before == i && (scope.kind == ScopeKind::kNamespace ||
                                      scope.saw_static);
    for (const Scope& s : scopes) {
      if (!s.name.empty()) decl.qualified += s.name + "::";
    }
    decl.qualified += token.text;
    if (decl.qualified.starts_with("fairlaw::")) decl.qualified.erase(0, 9);
    out.push_back(std::move(decl));
  }
  return out;
}

/// True when `file` spells `name` anywhere but at `declarators`.
bool UsedBeyond(const SourceFile& file,
                const std::vector<Declarator>& declarators,
                std::string_view name) {
  if (!HasIdent(file.idents, name)) return false;
  const std::span<const Token> tokens = file.tokens();
  size_t next = 0;  // declarators are in token order
  for (size_t i = 0; i < tokens.size(); ++i) {
    while (next < declarators.size() && declarators[next].token < i) ++next;
    if (next < declarators.size() && declarators[next].token == i) continue;
    if (tokens[i].IsIdent(name)) return true;
  }
  return false;
}

void CheckUnreachedFunctions(const Rule& self, const RuleInput& in,
                             Reporter& out) {
  const std::vector<SourceFile>& files = in.tree.files;
  const auto is_root = [](const SourceFile& file) {
    return file.Under("tools/") || file.Under("bench/") ||
           file.Under("examples/");
  };
  if (std::ranges::none_of(files, is_root)) return;
  const IncludeGraph& graph = in.tree.graph;
  for (const SourceFile& header : files) {
    if (!header.Under("src/") || !header.IsHeader()) continue;
    const auto source_it =
        graph.files.find(header.rel.substr(0, header.rel.size() - 2) + ".cc");
    const SourceFile* source =
        source_it == graph.files.end() ? nullptr : source_it->second.file;
    const std::vector<Declarator> header_decls =
        FindDeclarators(header.tokens());
    const std::vector<Declarator> source_decls =
        source == nullptr ? std::vector<Declarator>()
                          : FindDeclarators(source->tokens());
    std::set<std::string_view> seen;
    for (const Declarator& decl : header_decls) {
      const std::string_view name = header.tokens()[decl.token].text;
      if (!decl.reportable || !seen.insert(name).second) continue;
      const bool used =
          std::ranges::any_of(files,
                              [&](const SourceFile& file) {
                                return (file.Under("src/") || is_root(file)) &&
                                       &file != &header && &file != source &&
                                       HasIdent(file.idents, name);
                              }) ||
          UsedBeyond(header, header_decls, name) ||
          (source != nullptr && UsedBeyond(*source, source_decls, name));
      if (used) continue;
      out.Report(self, header, header.tokens()[decl.token].line,
                 "no file under tools/, bench/ or examples/, no other src/ "
                 "file, and nothing in its own module beyond its "
                 "declarations names '" + decl.qualified +
                     "'; wire it into one of them or delete it with its "
                     "tests");
    }
  }
}

std::map<std::string, int> FileCounts(const IncludeGraph& graph) {
  std::map<std::string, int> counts;
  for (const auto& [rel, deps] : graph.files) counts[deps.module] += 1;
  return counts;
}

constexpr Rule kDepsRules[] = {
    {"unknown-module", "deps", RuleKind::kIncludeGraph, nullptr,
     CheckUnknownModule},
    {"layering", "deps", RuleKind::kIncludeGraph, nullptr, CheckLayering},
    {"include-cycle", "deps", RuleKind::kIncludeGraph, nullptr,
     CheckIncludeCycles},
    {"module-cycle", "deps", RuleKind::kIncludeGraph, nullptr,
     CheckModuleCycles},
    {"unused-include", "deps", RuleKind::kIncludeGraph, nullptr,
     CheckUnusedIncludes},
    {"transitive-include", "deps", RuleKind::kIncludeGraph, nullptr,
     CheckTransitiveUse},
    {"unreached-module", "deps", RuleKind::kIncludeGraph, nullptr,
     CheckUnreachedModules},
    {"unreached-function", "deps", RuleKind::kIncludeGraph, nullptr,
     CheckUnreachedFunctions},
};

}  // namespace

std::span<const Rule> DepsRules() { return kDepsRules; }

IncludeGraph BuildIncludeGraph(std::span<const SourceFile> files,
                               ThreadPool& pool) {
  std::set<std::string> known;
  for (const SourceFile& file : files) known.insert(file.rel);
  std::vector<FileDeps> per_file(files.size());
  pool.ParallelFor(files.size(), [&](size_t i) {
    FileDeps& deps = per_file[i];
    deps.file = &files[i];
    deps.module = ModuleOf(files[i].rel);
    ExtractIncludesAndUses(files[i], known, &deps);
    if (files[i].IsHeader()) ExtractProvided(files[i].tokens(), &deps);
  });
  IncludeGraph graph;
  for (FileDeps& deps : per_file) {
    graph.files.emplace(deps.file->rel, std::move(deps));
  }
  // Module edges leave only from declared modules (an undeclared one is
  // unknown-module's finding); self-edges are not edges.
  for (const auto& [rel, deps] : graph.files) {
    if (ModuleRank(deps.module) < 0) continue;
    for (const IncludeEdge& edge : deps.includes) {
      const std::string& target_module = graph.files.at(edge.target).module;
      if (target_module != deps.module) {
        graph.module_edges[{deps.module, target_module}] += 1;
      }
    }
  }
  return graph;
}

std::string GraphJson(const IncludeGraph& graph) {
  std::map<std::string, int> file_counts = FileCounts(graph);
  std::string out = "{\n  \"modules\": [\n";
  bool first = true;
  for (const ModuleSpec& spec : kModules) {
    const auto count = file_counts.find(std::string(spec.name));
    if (count == file_counts.end()) continue;
    if (!first) out += ",\n";
    first = false;
    out += "    {\"name\": \"" + std::string(spec.name) +
           "\", \"rank\": " + std::to_string(spec.rank) +
           ", \"files\": " + std::to_string(count->second) + "}";
  }
  out += "\n  ],\n  \"module_edges\": [\n";
  first = true;
  for (const auto& [edge, count] : graph.module_edges) {
    if (!first) out += ",\n";
    first = false;
    out += "    {\"from\": \"" + JsonEscape(edge.first) + "\", \"to\": \"" +
           JsonEscape(edge.second) +
           "\", \"includes\": " + std::to_string(count) + "}";
  }
  out += "\n  ],\n  \"file_edges\": [\n";
  first = true;
  for (const auto& [rel, deps] : graph.files) {
    for (const IncludeEdge& edge : deps.includes) {
      if (!first) out += ",\n";
      first = false;
      out += "    {\"from\": \"" + JsonEscape(rel) + "\", \"to\": \"" +
             JsonEscape(edge.target) +
             "\", \"line\": " + std::to_string(edge.line) + "}";
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string GraphDot(const IncludeGraph& graph) {
  std::map<std::string, int> file_counts = FileCounts(graph);
  std::map<int, std::vector<std::string>> by_rank;
  for (const ModuleSpec& spec : kModules) {
    if (file_counts.count(std::string(spec.name)) == 0) continue;
    by_rank[spec.rank].push_back(std::string(spec.name));
  }
  std::string out = "digraph fairlaw_deps {\n";
  out += "  rankdir=BT;\n  node [shape=box, fontname=\"Helvetica\"];\n";
  for (const auto& [rank, modules] : by_rank) {
    out += "  { rank=same;";
    for (const std::string& module : modules) out += " \"" + module + "\";";
    out += " }\n";
  }
  for (const auto& [rank, modules] : by_rank) {
    for (const std::string& module : modules) {
      out += "  \"" + module + "\" [label=\"" + module + "\\nrank " +
             std::to_string(rank) + ", " +
             std::to_string(file_counts[module]) + " files\"];\n";
    }
  }
  for (const auto& [edge, count] : graph.module_edges) {
    out += "  \"" + edge.first + "\" -> \"" + edge.second + "\" [label=\"" +
           std::to_string(count) + "\"];\n";
  }
  return out + "}\n";
}

}  // namespace fairlaw::analysis
