// Status-discipline rules (family `flowcheck`): the cross-file rules.
// They read the signature index of every Status/Result<T>-returning
// declaration in src/** headers (tools/analysis/index.h) and prove that
// errors actually flow somewhere in every .cc under src/ and tools/. The
// repo's contract (base/status.h: every fallible operation returns a
// Status) is worthless if a caller can silently drop the return — in an
// unattended fairlaw_serve daemon a dropped Status is a wrong
// four-fifths verdict, not a crashed CLI.
//
//   discarded-status
//        A call to an indexed fallible function used as a bare
//        expression statement. A `(void)` cast does not exempt the call
//        by itself; it must carry the allow marker so every deliberate
//        discard names its reason.
//   unchecked-result
//        `.ValueOrDie()` / `.value()` / unary `*` / `->` on a local
//        declared `Result<T>` with no `name.ok()` check earlier in the
//        same or an enclosing scope, or on the temporary of a fallible
//        call.
//   status-in-task
//        Inside a ThreadPool::Submit/ParallelFor worker lambda: a bare
//        fallible call, or a Status local never read again before the
//        lambda ends. A worker's error must escape the lambda.
//   nodiscard-missing
//        An indexed src/** header declaration lacking FAIRLAW_NODISCARD,
//        so the compiler also warns on discards this pass cannot see.
//   dcheck-side-effect
//        FAIRLAW_DCHECK / FAIRLAW_DCHECK_OK arguments containing
//        ++/--/assignment or a call to an indexed fallible function: the
//        macros compile out under NDEBUG, and the side effect with them.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "tools/analysis/check.h"

namespace fairlaw::analysis {
namespace {

bool IsImplFile(const SourceFile& file) {
  return (file.Under("src/") || file.Under("tools/")) &&
         file.rel.ends_with(".cc");
}

/// For each ')' token index, the index of its '(' (kNoOpen elsewhere),
/// so statement-start checks can look behind closed condition headers
/// without rescanning.
constexpr size_t kNoOpen = static_cast<size_t>(-1);

std::vector<size_t> CloseToOpen(std::span<const Token> tokens) {
  std::vector<size_t> open_of(tokens.size(), kNoOpen);
  std::vector<size_t> stack;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].IsPunct("(")) stack.push_back(i);
    if (tokens[i].IsPunct(")") && !stack.empty()) {
      open_of[i] = stack.back();
      stack.pop_back();
    }
  }
  return open_of;
}

/// True when tokens[i] begins a statement: after ';', '{', '}',
/// 'else'/'do', or the ')' of an if/while/for/switch header.
bool IsStatementStart(std::span<const Token> tokens, size_t i,
                      const std::vector<size_t>& open_of_close) {
  if (i == 0) return true;
  const Token& prev = tokens[i - 1];
  if (prev.IsPunct(";") || prev.IsPunct("{") || prev.IsPunct("}")) {
    return true;
  }
  if (prev.IsIdent("else") || prev.IsIdent("do")) return true;
  if (prev.IsPunct(")")) {
    const size_t open = open_of_close[i - 1];
    if (open != kNoOpen && open > 0) {
      const Token& head = tokens[open - 1];
      return head.IsIdent("if") || head.IsIdent("while") ||
             head.IsIdent("for") || head.IsIdent("switch");
    }
  }
  return false;
}

/// Parses a postfix callee chain at `start` (`a.b->C::Fn(`); returns the
/// index of the called name when the chain ends in a call, or
/// tokens.size() when this is not a call statement.
size_t CalleeNameIndex(std::span<const Token> tokens, size_t start) {
  size_t k = start;
  if (k < tokens.size() && tokens[k].IsPunct("::")) ++k;  // ::fairlaw::Fn
  while (k + 1 < tokens.size()) {
    if (tokens[k].kind != TokenKind::kIdentifier) return tokens.size();
    const Token& next = tokens[k + 1];
    if (next.IsPunct("(")) return k;
    if (next.IsPunct("::") || next.IsPunct(".") || next.IsPunct("->")) {
      k += 2;
      continue;
    }
    return tokens.size();
  }
  return tokens.size();
}

/// The callee of a discarded fallible call statement starting at `i`
/// (a `(void)` cast is parsed through), or tokens.size().
size_t DiscardedFallibleCall(std::span<const Token> tokens, size_t i,
                             const SignatureIndex& index) {
  size_t start = i;
  if (tokens[i].IsPunct("(") && i + 2 < tokens.size() &&
      tokens[i + 1].IsIdent("void") && tokens[i + 2].IsPunct(")")) {
    start = i + 3;
  }
  const size_t callee = CalleeNameIndex(tokens, start);
  if (callee >= tokens.size() || !index.IsFallible(tokens[callee].text)) {
    return tokens.size();
  }
  const size_t close = MatchingClose(tokens, callee + 1);
  if (close + 1 >= tokens.size() || !tokens[close + 1].IsPunct(";")) {
    return tokens.size();  // result is consumed (member access, operator)
  }
  return callee;
}

void CheckDiscardedStatus(const Rule& self, const RuleInput& in,
                          Reporter& out) {
  const std::span<const Token> tokens = in.file->tokens();
  const std::vector<size_t> open_of_close = CloseToOpen(tokens);
  const std::vector<WorkerLambda> workers = WorkerLambdas(tokens);
  for (size_t i = 0; i < tokens.size(); ++i) {
    const bool in_worker =  // status-in-task's jurisdiction
        std::any_of(workers.begin(), workers.end(), [i](const WorkerLambda& w) {
          return i > w.body_open && i < w.body_close;
        });
    if (in_worker || !IsStatementStart(tokens, i, open_of_close)) continue;
    const size_t callee = DiscardedFallibleCall(tokens, i, in.tree.index);
    if (callee >= tokens.size()) continue;
    out.Report(self, *in.file, tokens[callee].line,
               "call to fallible '" + tokens[callee].text +
                   "' discards its Status/Result: assign and check it, wrap "
                   "it in FAIRLAW_RETURN_NOT_OK/FAIRLAW_CHECK_OK, or "
                   "(void)-cast it with a `flowcheck: "
                   "allow-discarded-status` justification");
  }
}

/// Scopes are tracked by brace stack; a check covers an access iff the
/// check's scope chain is a prefix of the access's (a check buried in
/// some other block proves nothing).
void CheckUncheckedResult(const Rule& self, const RuleInput& in,
                          Reporter& out) {
  const std::span<const Token> tokens = in.file->tokens();
  const SignatureIndex& index = in.tree.index;
  struct ResultLocal {
    size_t decl = 0;
    // Scope chains of every `name.ok()` seen since the declaration.
    std::vector<std::vector<size_t>> checks;
  };
  std::map<std::string, ResultLocal> locals;
  std::vector<size_t> scope;  // open-brace token indices

  auto is_prefix = [](const std::vector<size_t>& a,
                      const std::vector<size_t>& b) {
    return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.IsPunct("{")) {
      scope.push_back(i);
      continue;
    }
    if (token.IsPunct("}")) {
      if (!scope.empty()) scope.pop_back();
      continue;
    }

    // Immediate dereference of a fallible call's temporary: no ok()
    // check can precede it, so it is unchecked by construction.
    if (token.kind == TokenKind::kIdentifier && index.IsFallible(token.text) &&
        i + 1 < tokens.size() && tokens[i + 1].IsPunct("(")) {
      const size_t close = MatchingClose(tokens, i + 1);
      const bool arrow_deref =
          close + 1 < tokens.size() && tokens[close + 1].IsPunct("->");
      const bool dot_die =
          close + 2 < tokens.size() && tokens[close + 1].IsPunct(".") &&
          (tokens[close + 2].IsIdent("ValueOrDie") ||
           tokens[close + 2].IsIdent("value"));
      if (arrow_deref || dot_die) {
        out.Report(self, *in.file, tokens[close + 1].line,
                   "result of fallible '" + token.text +
                       "' is dereferenced in the same expression: no ok() "
                       "check is possible on the temporary, so on error this "
                       "aborts the process; bind the Result and check it, or "
                       "add a `flowcheck: allow-unchecked-result` comment "
                       "stating why failure is impossible here");
        continue;
      }
    }

    // Declaration: [fairlaw::] Result < ... > name {=,(,{}.
    if (token.IsIdent("Result") && i + 1 < tokens.size() &&
        tokens[i + 1].IsPunct("<")) {
      int depth = 0;
      size_t j = i + 1;
      for (; j < tokens.size(); ++j) {
        if (tokens[j].IsPunct("<")) ++depth;
        if (tokens[j].IsPunct(">")) --depth;
        if (tokens[j].IsPunct(">>")) depth -= 2;
        if (tokens[j].IsPunct(";")) break;
        if (depth <= 0) break;
      }
      if (j >= tokens.size() || !tokens[j].IsPunct(">")) continue;
      ++j;
      while (j < tokens.size() &&
             (tokens[j].IsPunct("&") || tokens[j].IsPunct("*"))) {
        ++j;
      }
      if (j + 1 < tokens.size() && tokens[j].kind == TokenKind::kIdentifier &&
          (tokens[j + 1].IsPunct("=") || tokens[j + 1].IsPunct("(") ||
           tokens[j + 1].IsPunct("{"))) {
        locals[tokens[j].text] = ResultLocal{j, {}};
      }
      continue;
    }

    if (token.kind != TokenKind::kIdentifier) continue;
    const auto it = locals.find(token.text);
    if (it == locals.end() || i <= it->second.decl) continue;
    ResultLocal& local = it->second;

    // `name.ok(` — record the check with its scope chain.
    if (i + 2 < tokens.size() && tokens[i + 1].IsPunct(".") &&
        tokens[i + 2].IsIdent("ok")) {
      local.checks.push_back(scope);
      continue;
    }

    const char* how = nullptr;
    size_t line = token.line;
    if (i + 2 < tokens.size() && tokens[i + 1].IsPunct(".") &&
        (tokens[i + 2].IsIdent("ValueOrDie") ||
         tokens[i + 2].IsIdent("value"))) {
      how = tokens[i + 2].text == "value" ? ".value()" : ".ValueOrDie()";
    } else if (i + 1 < tokens.size() && tokens[i + 1].IsPunct("->")) {
      how = "operator->";
    } else if (i >= 2 && tokens[i - 1].IsPunct("*") &&
               (tokens[i - 2].IsIdent("return") ||
                (tokens[i - 2].kind != TokenKind::kIdentifier &&
                 tokens[i - 2].kind != TokenKind::kNumber &&
                 !tokens[i - 2].IsPunct(")") &&
                 !tokens[i - 2].IsPunct("]")))) {
      how = "unary *";
      line = tokens[i - 1].line;
    }
    if (how == nullptr) continue;

    const bool checked =
        std::any_of(local.checks.begin(), local.checks.end(),
                    [&](const std::vector<size_t>& check_scope) {
                      return is_prefix(check_scope, scope);
                    });
    if (checked) continue;
    out.Report(self, *in.file, line,
               std::string("Result '") + token.text + "' is accessed via " +
                   how + " with no prior '" + token.text +
                   ".ok()' check in this or an enclosing scope: on error this "
                   "aborts the process; check ok(), use "
                   "FAIRLAW_ASSIGN_OR_RETURN, or add a `flowcheck: "
                   "allow-unchecked-result` comment stating why failure is "
                   "impossible here");
  }
}

void CheckStatusInTask(const Rule& self, const RuleInput& in, Reporter& out) {
  if (!in.file->Mentions({"Submit", "ParallelFor"})) return;
  const std::span<const Token> tokens = in.file->tokens();
  const std::vector<size_t> open_of_close = CloseToOpen(tokens);
  for (const WorkerLambda& body : WorkerLambdas(tokens)) {
    for (size_t i = body.body_open + 1; i < body.body_close; ++i) {
      if (IsStatementStart(tokens, i, open_of_close)) {
        const size_t callee = DiscardedFallibleCall(tokens, i, in.tree.index);
        if (callee < tokens.size()) {
          out.Report(self, *in.file, tokens[callee].line,
                     "fallible '" + tokens[callee].text +
                         "' called inside a Submit/ParallelFor task with its "
                         "Status discarded: a worker's error must escape the "
                         "lambda (per-task slot or mutex-guarded "
                         "aggregator), or the merged result is silently "
                         "partial");
          continue;
        }
      }
      // `Status name = ...;` never read again before the body ends.
      if (tokens[i].IsIdent("Status") && i + 2 < body.body_close &&
          tokens[i + 1].kind == TokenKind::kIdentifier &&
          tokens[i + 2].IsPunct("=") && !tokens[i - 1].IsPunct("::")) {
        const std::string& name = tokens[i + 1].text;
        bool read_later = false;
        for (size_t j = i + 3; j < body.body_close && !read_later; ++j) {
          read_later = tokens[j].kind == TokenKind::kIdentifier &&
                       tokens[j].text == name;
        }
        if (read_later) continue;
        out.Report(self, *in.file, tokens[i + 1].line,
                   "Status '" + name +
                       "' produced inside a Submit/ParallelFor task is never "
                       "read before the lambda ends: store it in a per-task "
                       "slot or hand it to a guarded aggregator so the "
                       "caller sees the failure");
      }
    }
  }
}

void CheckNodiscard(const Rule& self, const RuleInput& in, Reporter& out) {
  for (const FallibleFn& fn : in.tree.index.functions()) {
    if (fn.file != in.file->rel || fn.has_nodiscard) continue;
    out.Report(self, *in.file, fn.line,
               "'" + fn.qualified + "' returns " + fn.return_type +
                   " but is not declared FAIRLAW_NODISCARD: without it the "
                   "compiler stays silent when a caller drops the error");
  }
}

void CheckDcheckSideEffect(const Rule& self, const RuleInput& in,
                           Reporter& out) {
  static constexpr std::string_view kMutatingOps[] = {
      "++", "--", "=",  "+=",  "-=",  "*=", "/=",
      "%=", "&=", "|=", "^=", "<<=", ">>=",
  };
  if (!in.file->Mentions({"FAIRLAW_DCHECK", "FAIRLAW_DCHECK_OK"})) return;
  const std::span<const Token> tokens = in.file->tokens();
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!(tokens[i].IsIdent("FAIRLAW_DCHECK") ||
          tokens[i].IsIdent("FAIRLAW_DCHECK_OK")) ||
        !tokens[i + 1].IsPunct("(")) {
      continue;
    }
    const size_t close = MatchingClose(tokens, i + 1);
    for (size_t j = i + 2; j < close && j < tokens.size(); ++j) {
      std::string what;
      if (tokens[j].kind == TokenKind::kPunct &&
          std::find(std::begin(kMutatingOps), std::end(kMutatingOps),
                    tokens[j].text) != std::end(kMutatingOps)) {
        what = "operator '" + tokens[j].text + "'";
      } else if (tokens[j].kind == TokenKind::kIdentifier &&
                 in.tree.index.IsFallible(tokens[j].text) &&
                 j + 1 < tokens.size() && tokens[j + 1].IsPunct("(")) {
        what = "call to fallible '" + tokens[j].text + "'";
      } else {
        continue;
      }
      out.Report(self, *in.file, tokens[j].line,
                 what + " inside " + tokens[i].text +
                     ": the macro compiles out under NDEBUG, so this side "
                     "effect silently vanishes from release builds; hoist it "
                     "out and check the stored result instead");
      break;  // one finding per macro invocation is enough
    }
  }
}

constexpr Rule kFlowRules[] = {
    {"discarded-status", "flowcheck", RuleKind::kHeaderIndex, IsImplFile,
     CheckDiscardedStatus},
    {"unchecked-result", "flowcheck", RuleKind::kHeaderIndex, IsImplFile,
     CheckUncheckedResult},
    {"status-in-task", "flowcheck", RuleKind::kHeaderIndex, IsImplFile,
     CheckStatusInTask},
    {"nodiscard-missing", "flowcheck", RuleKind::kHeaderIndex,
     [](const SourceFile& f) { return f.Under("src/") && f.IsHeader(); },
     CheckNodiscard},
    {"dcheck-side-effect", "flowcheck", RuleKind::kHeaderIndex, IsImplFile,
     CheckDcheckSideEffect},
};

}  // namespace

std::span<const Rule> FlowRules() { return kFlowRules; }

}  // namespace fairlaw::analysis
