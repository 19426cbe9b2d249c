#include "tools/analysis/index.h"

#include <string>

namespace fairlaw::analysis {

namespace {

/// Leading declaration specifiers the backscan absorbs when locating a
/// declaration's first token: storage/function specifiers, the
/// FAIRLAW_NODISCARD macro itself, and the cv-qualifiers of a
/// reference-returning accessor (`const Status& status()`).
constexpr std::string_view kDeclSpecifiers[] = {
    "static", "virtual",           "inline", "constexpr", "explicit",
    "friend", "FAIRLAW_NODISCARD", "const",  "volatile",
};

bool IsDeclSpecifier(const Token& token) {
  if (token.kind != TokenKind::kIdentifier) return false;
  for (const std::string_view spec : kDeclSpecifiers) {
    if (token.text == spec) return true;
  }
  return false;
}

/// One entry per '{' currently open. Named entries are namespace/class
/// scopes and contribute to qualified names; anonymous entries are
/// function bodies, lambdas, initializers — declarations inside those
/// are locals, not API, and are not indexed.
struct Scope {
  std::string name;  // "" for anonymous
  bool named = false;
};

/// Index of the '>' closing the '<' at `open`, counting '>>' as two
/// closers (template shift quirk). Returns tokens.size() if unbalanced.
size_t MatchingAngleClose(std::span<const Token> tokens, size_t open) {
  int depth = 0;
  for (size_t j = open; j < tokens.size(); ++j) {
    if (tokens[j].IsPunct("<")) ++depth;
    if (tokens[j].IsPunct(">")) --depth;
    if (tokens[j].IsPunct(">>")) depth -= 2;
    // Give up on shapes that cannot be a template argument list.
    if (tokens[j].IsPunct(";") || tokens[j].IsPunct("{")) return tokens.size();
    if (depth <= 0) return j;
  }
  return tokens.size();
}

/// Renders the spelling of tokens [begin, end] for FallibleFn::return_type.
std::string Spelling(std::span<const Token> tokens, size_t begin, size_t end) {
  std::string out;
  for (size_t j = begin; j <= end && j < tokens.size(); ++j) {
    if (!out.empty() && tokens[j].kind == TokenKind::kIdentifier &&
        tokens[j - 1].kind == TokenKind::kIdentifier) {
      out += ' ';
    }
    out += tokens[j].text;
  }
  return out;
}

}  // namespace

void SignatureIndex::AddHeader(const std::string& rel_path,
                               std::span<const Token> tokens) {
  std::vector<Scope> scopes;

  // Pending namespace/class head: name to attach to the next '{'.
  std::string pending_name;
  bool pending = false;

  auto at_api_scope = [&scopes]() {
    for (const Scope& scope : scopes) {
      if (!scope.named) return false;  // inside a function body / lambda
    }
    return true;
  };

  // `anchor` starts the backscan for specifiers (the return type for
  // leading-type declarations, the `auto` for trailing returns);
  // [type_begin, type_end] is the Status/Result spelling itself.
  auto record = [&](size_t anchor, size_t type_begin, size_t type_end,
                    size_t name_index, bool by_value) {
    // Absorb a leading qualifier chain (fairlaw::Status, ::fairlaw::...).
    size_t first = anchor;
    while (first >= 2 && tokens[first - 1].IsPunct("::") &&
           tokens[first - 2].kind == TokenKind::kIdentifier) {
      first -= 2;
    }
    if (first >= 1 && tokens[first - 1].IsPunct("::")) --first;
    bool nodiscard = false;
    while (first > 0 && IsDeclSpecifier(tokens[first - 1])) {
      if (tokens[first - 1].text == "FAIRLAW_NODISCARD") nodiscard = true;
      --first;
    }
    FallibleFn fn;
    fn.file = rel_path;
    fn.line = tokens[first].line;
    fn.name = tokens[name_index].text;
    std::string prefix;
    for (const Scope& scope : scopes) {
      if (scope.named) prefix += scope.name + "::";
    }
    fn.qualified = prefix + fn.name;
    fn.return_type = Spelling(tokens, type_begin, type_end);
    fn.by_value = by_value;
    fn.has_nodiscard = nodiscard;
    if (by_value) by_value_names_.insert(fn.name);
    functions_.push_back(std::move(fn));
  };

  // After the return type at [type_begin, type_end]: optional &/&&
  // (reference return — indexed for the nodiscard sweep but not part of
  // the fallible-call set), then a non-operator name, then '('.
  auto try_decl_tail = [&](size_t type_begin, size_t type_end) {
    size_t j = type_end + 1;
    bool by_value = true;
    while (j < tokens.size() &&
           (tokens[j].IsPunct("&") || tokens[j].IsPunct("&&"))) {
      by_value = false;
      ++j;
    }
    if (j + 1 >= tokens.size()) return;
    if (tokens[j].kind != TokenKind::kIdentifier) return;
    if (tokens[j].text == "operator") return;  // operator= and friends
    if (!tokens[j + 1].IsPunct("(")) return;
    record(type_begin, type_begin, type_end, j, by_value);
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];

    if (token.IsPunct("{")) {
      Scope scope;
      if (pending) {
        scope.name = pending_name;
        scope.named = true;
        pending = false;
      }
      scopes.push_back(std::move(scope));
      continue;
    }
    if (token.IsPunct("}")) {
      if (!scopes.empty()) scopes.pop_back();
      continue;
    }
    if (token.IsPunct(";")) {
      pending = false;  // forward declaration / namespace alias
      continue;
    }

    if (token.kind != TokenKind::kIdentifier) continue;

    // Namespace heads: `namespace a::b {` (aliases cancelled at '=').
    if (token.IsIdent("namespace")) {
      std::string name;
      size_t j = i + 1;
      while (j < tokens.size() && (tokens[j].kind == TokenKind::kIdentifier ||
                                   tokens[j].IsPunct("::"))) {
        name += tokens[j].text;
        ++j;
      }
      if (j < tokens.size() && tokens[j].IsPunct("{")) {
        pending_name = name;  // may be "" (anonymous namespace)
        pending = true;
        // Anonymous namespaces still qualify as API scope.
        if (name.empty()) pending_name = "";
        i = j - 1;
      } else {
        pending = false;  // alias: namespace fs = std::filesystem;
      }
      continue;
    }

    // Class/struct heads: `class Name ... {`; forward declarations and
    // template parameters (`template <class T>`) never reach a '{'
    // before ';'/'>'/','/')' at angle depth zero.
    if ((token.IsIdent("class") || token.IsIdent("struct")) &&
        !(i > 0 && tokens[i - 1].IsIdent("enum"))) {
      if (i + 1 < tokens.size() &&
          tokens[i + 1].kind == TokenKind::kIdentifier) {
        int angle = 0;
        for (size_t j = i + 2; j < tokens.size(); ++j) {
          if (tokens[j].IsPunct("<")) ++angle;
          if (tokens[j].IsPunct(">")) --angle;
          if (tokens[j].IsPunct(">>")) angle -= 2;
          if (angle < 0) break;  // a template parameter, not a definition
          if (angle > 0) continue;
          if (tokens[j].IsPunct("{")) {
            pending_name = tokens[i + 1].text;
            pending = true;
            break;
          }
          if (tokens[j].IsPunct(";") || tokens[j].IsPunct("=") ||
              tokens[j].IsPunct(",") || tokens[j].IsPunct(")")) {
            break;
          }
        }
      }
      continue;
    }

    if (!at_api_scope()) continue;

    // `Status Name(...)` — but not `Status::...` (a qualifier, e.g. the
    // factory call `Status::Invalid(...)`), which is usage, not a
    // declaration.
    if (token.IsIdent("Status")) {
      if (i + 1 < tokens.size() && tokens[i + 1].IsPunct("::")) continue;
      try_decl_tail(i, i);
      continue;
    }

    // `Result<T> Name(...)`.
    if (token.IsIdent("Result") && i + 1 < tokens.size() &&
        tokens[i + 1].IsPunct("<")) {
      const size_t close = MatchingAngleClose(tokens, i + 1);
      if (close >= tokens.size()) continue;
      try_decl_tail(i, close);
      continue;
    }

    // Trailing return types: `auto Name(...) [specs] -> Status` /
    // `-> Result<T>`. The arrow target may be namespace-qualified.
    if (token.IsIdent("auto") && i + 2 < tokens.size() &&
        tokens[i + 1].kind == TokenKind::kIdentifier &&
        tokens[i + 1].text != "operator" && tokens[i + 2].IsPunct("(")) {
      const size_t params_close = MatchingClose(tokens, i + 2);
      if (params_close >= tokens.size()) continue;
      size_t j = params_close + 1;
      size_t arrow = tokens.size();
      while (j < tokens.size()) {
        if (tokens[j].IsPunct("->")) {
          arrow = j;
          break;
        }
        if (tokens[j].IsPunct(";") || tokens[j].IsPunct("{") ||
            tokens[j].IsPunct("}")) {
          break;
        }
        if (tokens[j].IsPunct("(")) {  // noexcept(...)
          j = MatchingClose(tokens, j);
          if (j >= tokens.size()) break;
        }
        ++j;
      }
      if (arrow >= tokens.size()) continue;
      size_t k = arrow + 1;
      if (k < tokens.size() && tokens[k].IsPunct("::")) ++k;
      while (k + 1 < tokens.size() &&
             tokens[k].kind == TokenKind::kIdentifier &&
             tokens[k + 1].IsPunct("::")) {
        k += 2;
      }
      if (k >= tokens.size()) continue;
      if (tokens[k].IsIdent("Status")) {
        size_t type_end = k;
        bool by_value = true;
        while (type_end + 1 < tokens.size() &&
               (tokens[type_end + 1].IsPunct("&") ||
                tokens[type_end + 1].IsPunct("&&"))) {
          by_value = false;
          ++type_end;
        }
        record(i, k, type_end, i + 1, by_value);
      } else if (tokens[k].IsIdent("Result") && k + 1 < tokens.size() &&
                 tokens[k + 1].IsPunct("<")) {
        const size_t close = MatchingAngleClose(tokens, k + 1);
        if (close < tokens.size()) record(i, k, close, i + 1, true);
      }
    }
  }
}

}  // namespace fairlaw::analysis
