// fairlaw_check — the project's static analyzer: one source walk, one
// lex per file, every rule.
//
//   fairlaw_check [--root=DIR] [--rules=NAMES] [--json=PATH]
//                 [--graph=PATH] [--dot=PATH] [--verbose]
//   fairlaw_check --self-test=FIXTURE_DIR [--rules=NAMES]
//
// Walks src/, tools/, tests/, bench/, and examples/ under --root,
// lexes each file once (tools/analysis/lexer.h), builds the signature
// index of fallible declarations and the include graph once, and runs
// the rule registry (tools/analysis/check.h) over that shared state.
// Rules come in four families, each documented in its own file:
//
//   lint       include-guard, banned-function, bare-check,
//              thread-primitive, hot-path, timing-source, simd-intrinsic
//              (tools/analysis/lint_rules.cc)
//   detcheck   unordered-iteration, entropy, merge-order, lock-expensive,
//              float-reduction, obs-read-in-output
//              (tools/analysis/det_rules.cc)
//   flowcheck  discarded-status, unchecked-result, status-in-task,
//              nodiscard-missing, dcheck-side-effect
//              (tools/analysis/flow_rules.cc)
//   deps       unknown-module, layering, include-cycle, module-cycle,
//              unused-include, transitive-include, unreached-module,
//              unreached-function
//              (tools/analysis/deps_rules.cc)
//
// --rules= takes rule and family names (default: all). Findings print
// to stderr as `file:line: rule: message`; --json writes the canonical
// artifact, --graph/--dot the module graph. An escape hatch is a
// `<family>: allow-<rule>` comment on the flagged line or the line
// above; suppressions are counted.
//
// --self-test runs each subdirectory of FIXTURE_DIR as its own root.
// The subdirectory's name selects what runs there: a rule name
// (tools/check_fixture/entropy/ holds that rule's violations) or a
// family name (tools/check_fixture/detcheck/ holds an escaped instance
// of every detcheck rule, so the whole family must stay silent there).
// The output must equal the subdirectory's expected.txt byte for byte
// (the Reporter::Text form: findings, then `N finding(s), M
// suppressed`). --rules= restricts the run to subdirectories whose
// rules are all selected; FIXTURE_DIR may also name one subdirectory.
// Directories named *_fixture are never scanned as part of a live tree.
//
// Exit codes: 0 clean (or every fixture matched), 1 findings (or a
// fixture mismatch), 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "tools/analysis/check.h"
#include "tools/cli.h"

namespace {

namespace fs = std::filesystem;
using fairlaw::analysis::BuildIncludeGraph;
using fairlaw::analysis::GraphDot;
using fairlaw::analysis::GraphJson;
using fairlaw::analysis::LoadTree;
using fairlaw::analysis::Reporter;
using fairlaw::analysis::Rule;
using fairlaw::analysis::RunRules;
using fairlaw::analysis::SelectRules;
using fairlaw::analysis::SourceTree;

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "fairlaw_check: cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

/// Runs each fixture subdirectory whose rules are all selected against
/// its expected.txt; `fixtures` may also be one such subdirectory.
int SelfTest(const fs::path& fixtures,
             const std::vector<const Rule*>& selected,
             fairlaw::ThreadPool& pool) {
  std::vector<fs::path> dirs;
  if (fs::exists(fixtures / "expected.txt")) {
    dirs.push_back(fixtures);
  } else {
    for (const fs::directory_entry& entry : fs::directory_iterator(fixtures)) {
      if (entry.is_directory()) dirs.push_back(entry.path());
    }
    std::sort(dirs.begin(), dirs.end());
  }
  size_t ran = 0;
  size_t failed = 0;
  for (const fs::path& dir : dirs) {
    std::vector<const Rule*> rules;
    std::string error;
    if (!SelectRules({dir.filename().string()}, &rules, &error)) {
      std::fprintf(stderr, "fairlaw_check: fixture '%s': %s\n",
                   dir.string().c_str(), error.c_str());
      return 2;
    }
    const bool wanted = std::all_of(
        rules.begin(), rules.end(), [&selected](const Rule* rule) {
          return std::find(selected.begin(), selected.end(), rule) !=
                 selected.end();
        });
    if (!wanted) continue;
    ++ran;
    std::ifstream in(dir / "expected.txt", std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    const std::string actual =
        RunRules(LoadTree(dir, rules, pool), rules, pool).Text();
    if (actual == expected.str()) continue;
    ++failed;
    std::fprintf(stderr,
                 "fairlaw_check: fixture '%s' does not match expected.txt\n"
                 "--- expected\n%s--- actual\n%s",
                 dir.filename().string().c_str(), expected.str().c_str(),
                 actual.c_str());
  }
  std::fprintf(stderr, "fairlaw_check: %zu fixture(s), %zu mismatch(es)\n", ran,
               failed);
  return ran > 0 && failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_flag = ".";
  std::vector<std::string> rule_names;
  std::string json_path;
  std::string graph_path;
  std::string dot_path;
  std::string self_test;
  bool verbose = false;
  fairlaw::cli::FlagSet flags(
      "fairlaw_check", "",
      "Static analysis of the fairlaw tree: project hygiene, determinism,\n"
      "Status discipline, and layering in one pass (see the header of\n"
      "tools/fairlaw_check.cc for the rule families).\n"
      "exit codes: 0 clean, 1 findings, 2 usage or I/O error");
  flags.Add("root", &root_flag, "tree to scan");
  flags.Add("rules", &rule_names,
            "comma-separated rule or family names to run (default: all)");
  flags.Section("output");
  flags.Add("json", &json_path, "write the findings artifact to this path");
  flags.Add("graph", &graph_path, "write the module graph as JSON here");
  flags.Add("dot", &dot_path, "write the module graph as Graphviz here");
  flags.Add("verbose", &verbose, "print the finding count even when clean");
  flags.Section("self-test");
  flags.Add("self-test", &self_test,
            "fixture tree: check each <rule>/ subdirectory against its "
            "expected.txt");
  fairlaw::Result<fairlaw::cli::ParseResult> parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "fairlaw_check: %s\n\n%s",
                 parsed.status().message().c_str(), flags.Help().c_str());
    return 2;
  }
  if (parsed->help) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!parsed->positionals.empty()) {
    std::fprintf(stderr, "fairlaw_check: unexpected argument '%s'\n",
                 parsed->positionals[0].c_str());
    return 2;
  }
  // One worker per core; per-file results merge in file order, so the
  // output does not depend on the pool size.
  fairlaw::ThreadPool pool(0);
  std::vector<const Rule*> rules;
  std::string error;
  if (!SelectRules(rule_names, &rules, &error)) {
    std::fprintf(stderr, "fairlaw_check: --rules: %s\n", error.c_str());
    return 2;
  }
  if (!self_test.empty()) {
    if (!fs::is_directory(self_test)) {
      std::fprintf(stderr, "fairlaw_check: '%s' is not a directory\n",
                   self_test.c_str());
      return 2;
    }
    fs::path fixtures = fs::path(self_test).lexically_normal();
    if (!fixtures.has_filename()) fixtures = fixtures.parent_path();
    return SelfTest(fixtures, rules, pool);
  }
  const fs::path root(root_flag);
  if (!fs::is_directory(root / "src")) {
    std::fprintf(stderr, "fairlaw_check: no src/ directory under '%s'\n",
                 root.string().c_str());
    return 2;
  }

  SourceTree tree = LoadTree(root, rules, pool);
  const Reporter reporter = RunRules(tree, rules, pool);
  if ((!graph_path.empty() || !dot_path.empty()) && tree.graph.files.empty()) {
    tree.graph = BuildIncludeGraph(tree.files, pool);
  }
  if (verbose || !reporter.findings().empty()) {
    std::fprintf(stderr, "%s", reporter.Text().c_str());
  }
  if (!json_path.empty() && !WriteFile(json_path, reporter.Json() + "\n")) {
    return 2;
  }
  if (!graph_path.empty() && !WriteFile(graph_path, GraphJson(tree.graph))) {
    return 2;
  }
  if (!dot_path.empty() && !WriteFile(dot_path, GraphDot(tree.graph))) {
    return 2;
  }
  return reporter.findings().empty() ? 0 : 1;
}
