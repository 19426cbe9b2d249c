#include "tools/analysis/check.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "base/thread_pool.h"

namespace fairlaw::analysis {

namespace fs = std::filesystem;

namespace {

std::string ReadFileToString(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every .h/.cc/.cpp file under the scanned top-level directories, in
/// sorted path order so the scan (and therefore the artifact) is
/// deterministic. Directories named *_fixture hold deliberate
/// violations for the self-test and are skipped.
std::vector<fs::path> CollectSources(const fs::path& root) {
  constexpr std::string_view kTops[] = {"src", "tools", "tests", "bench",
                                        "examples"};
  std::vector<fs::path> files;
  for (const std::string_view top : kTops) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir)) continue;
    for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
      if (it->is_directory() &&
          it->path().filename().string().ends_with("_fixture")) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The distinct identifier spellings of a file. Deduplicates through a
/// hash set first: a file repeats its identifiers many times over, and
/// only the distinct ones are sorted.
IdentSet CollectIdents(std::span<const Token> tokens) {
  std::unordered_set<std::string_view> seen;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kIdentifier) seen.insert(token.text);
  }
  IdentSet idents(seen.begin(), seen.end());
  std::sort(idents.begin(), idents.end());
  return idents;
}

bool NeedsKind(std::span<const Rule* const> rules, RuleKind kind) {
  return std::any_of(rules.begin(), rules.end(),
                     [kind](const Rule* rule) { return rule->kind == kind; });
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void Reporter::Report(const Rule& rule, const SourceFile& file, size_t line,
                      std::string message, size_t anchor_line) {
  const std::string marker =
      std::string(rule.family) + ": allow-" + std::string(rule.name);
  const std::vector<Comment>& comments = file.lex.comments;
  if (HasMarkerOnOrAbove(comments, marker, line) ||
      (anchor_line != 0 &&
       HasMarkerOnOrAbove(comments, marker, anchor_line))) {
    ++suppressed_;
    return;
  }
  findings_.push_back(
      Finding{file.rel, line, std::string(rule.name), std::move(message)});
}

void Reporter::ReportAt(const Rule& rule, std::string file, size_t line,
                        std::string message) {
  findings_.push_back(Finding{std::move(file), line, std::string(rule.name),
                              std::move(message)});
}

void Reporter::Merge(const Reporter& other) {
  findings_.insert(findings_.end(), other.findings_.begin(),
                   other.findings_.end());
  suppressed_ += other.suppressed_;
}

void Reporter::Sort() {
  std::stable_sort(findings_.begin(), findings_.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.file, a.line, a.rule) <
                            std::tie(b.file, b.line, b.rule);
                   });
}

std::string Reporter::Text() const {
  std::string out;
  for (const Finding& finding : findings_) {
    out += finding.file + ":" + std::to_string(finding.line) + ": " +
           finding.rule + ": " + finding.message + "\n";
  }
  out += std::to_string(findings_.size()) + " finding(s), " +
         std::to_string(suppressed_) + " suppressed\n";
  return out;
}

std::string Reporter::Json() const {
  std::ostringstream out;
  out << "{\"tool\":\"fairlaw_check\",\"schema_version\":1,\"findings\":[";
  bool first = true;
  for (const Finding& finding : findings_) {
    if (!first) out << ',';
    first = false;
    out << "{\"file\":\"" << JsonEscape(finding.file)
        << "\",\"line\":" << finding.line << ",\"rule\":\"" << finding.rule
        << "\",\"message\":\"" << JsonEscape(finding.message) << "\"}";
  }
  out << "],\"count\":" << findings_.size()
      << ",\"suppressed\":" << suppressed_ << "}";
  return out.str();
}

std::vector<const Rule*> AllRules() {
  std::vector<const Rule*> rules;
  for (const std::span<const Rule> family :
       {LintRules(), DetRules(), FlowRules(), DepsRules()}) {
    for (const Rule& rule : family) rules.push_back(&rule);
  }
  return rules;
}

bool SelectRules(const std::vector<std::string>& names,
                 std::vector<const Rule*>* selected, std::string* error) {
  const std::vector<const Rule*> all = AllRules();
  if (names.empty()) {
    *selected = all;
    return true;
  }
  std::set<const Rule*> chosen;
  for (const std::string& name : names) {
    bool matched = false;
    for (const Rule* rule : all) {
      if (rule->name == name || rule->family == name) {
        chosen.insert(rule);
        matched = true;
      }
    }
    if (!matched) {
      *error = "unknown rule or family '" + name + "'";
      return false;
    }
  }
  selected->clear();
  for (const Rule* rule : all) {
    if (chosen.count(rule) > 0) selected->push_back(rule);
  }
  return true;
}

SourceTree LoadTree(const fs::path& root, std::span<const Rule* const> rules,
                    ThreadPool& pool) {
  const std::vector<fs::path> paths = CollectSources(root);
  SourceTree tree;
  // Each task fills only its own slot, and slots never move afterwards,
  // so the identifier index may view token text.
  tree.files.resize(paths.size());
  pool.ParallelFor(paths.size(), [&](size_t i) {
    SourceFile& file = tree.files[i];
    // Lexical: the walk started at root, so no filesystem lookups.
    file.rel = paths[i].lexically_relative(root).generic_string();
    file.lex = Lex(ReadFileToString(paths[i]));
    file.idents = CollectIdents(file.tokens());
  });
  if (NeedsKind(rules, RuleKind::kHeaderIndex)) {
    for (const SourceFile& file : tree.files) {
      if (file.Under("src/") && file.IsHeader()) {
        tree.index.AddHeader(file.rel, file.tokens());
      }
    }
  }
  if (NeedsKind(rules, RuleKind::kIncludeGraph)) {
    tree.graph = BuildIncludeGraph(tree.files, pool);
  }
  return tree;
}

Reporter RunRules(const SourceTree& tree, std::span<const Rule* const> rules,
                  ThreadPool& pool) {
  // Per-file rules run file-parallel into per-file reporters, merged in
  // file order, so the findings do not depend on scheduling.
  std::vector<Reporter> per_file(tree.files.size());
  pool.ParallelFor(tree.files.size(), [&](size_t i) {
    const SourceFile& file = tree.files[i];
    for (const Rule* rule : rules) {
      if (rule->kind != RuleKind::kIncludeGraph && rule->applies(file)) {
        rule->check(*rule, RuleInput{&file, tree}, per_file[i]);
      }
    }
  });
  Reporter reporter;
  for (const Rule* rule : rules) {
    if (rule->kind == RuleKind::kIncludeGraph) {
      rule->check(*rule, RuleInput{nullptr, tree}, reporter);
    }
  }
  for (const Reporter& part : per_file) reporter.Merge(part);
  reporter.Sort();
  return reporter;
}

std::vector<WorkerLambda> WorkerLambdas(std::span<const Token> tokens) {
  std::vector<std::string> task_names;
  std::vector<size_t> intros;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!(tokens[i].IsIdent("Submit") || tokens[i].IsIdent("ParallelFor")) ||
        !tokens[i + 1].IsPunct("(")) {
      continue;
    }
    const size_t close = MatchingClose(tokens, i + 1);
    int depth = 0;
    for (size_t j = i + 1; j < close && j < tokens.size(); ++j) {
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
        intros.push_back(j);
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
      intros.push_back(i + 2);
    }
  }
  std::vector<WorkerLambda> lambdas;
  for (const size_t intro : intros) {
    WorkerLambda lambda;
    lambda.intro = intro;
    lambda.intro_close = MatchingClose(tokens, intro);
    if (lambda.intro_close >= tokens.size()) continue;
    size_t j = lambda.intro_close + 1;
    if (j < tokens.size() && tokens[j].IsPunct("(")) {
      lambda.params_open = j;
      j = MatchingClose(tokens, j);
      if (j >= tokens.size()) continue;
      ++j;
    }
    // Skip specifiers and a trailing return type up to the body brace;
    // any other shape is not a lambda.
    while (j < tokens.size() && !tokens[j].IsPunct("{") &&
           !tokens[j].IsPunct(";") && !tokens[j].IsPunct(")")) {
      ++j;
    }
    if (j >= tokens.size() || !tokens[j].IsPunct("{")) continue;
    lambda.body_open = j;
    lambda.body_close = MatchingClose(tokens, j);
    if (lambda.body_close < tokens.size()) lambdas.push_back(lambda);
  }
  return lambdas;
}

}  // namespace fairlaw::analysis
