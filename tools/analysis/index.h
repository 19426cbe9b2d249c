#ifndef FAIRLAW_TOOLS_ANALYSIS_INDEX_H_
#define FAIRLAW_TOOLS_ANALYSIS_INDEX_H_

#include <cstddef>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tools/analysis/lexer.h"

/// fairlaw::analysis — cross-file signature index of fallible
/// declarations, the first analysis-pass component with knowledge that
/// spans translation units.
///
/// The repo's error-handling contract (base/status.h: every fallible
/// operation returns a Status or Result<T>) is only checkable at a call
/// site if the checker knows which callees are fallible — a single-file
/// pass cannot see that `table.GetColumn(...)` returns a Result. This
/// index scans every header under src/** and records each
/// function/method whose declared return type is `Status` or
/// `Result<T>` (by value or by reference, namespace- and
/// class-qualified, including static factories such as
/// `Status::Invalid`), handling the declaration shapes the repo
/// actually uses:
///
///   * leading specifiers: static, virtual, inline, constexpr,
///     explicit, friend, and the FAIRLAW_NODISCARD macro;
///   * qualified return types (`fairlaw::Status`, `::fairlaw::Result<T>`);
///   * trailing return types (`auto Foo(...) -> Status`);
///   * function-try-block definitions (`Status Foo() try { ... }`);
///   * template argument lists in Result<...> with nested <> and >>.
///
/// It is purely lexical (macros are not expanded, overloads are not
/// resolved), so consumers match call sites by unqualified callee name:
/// a name is "fallible" if ANY indexed declaration carries it. That is
/// deliberately conservative in the flagging direction — fairlaw
/// headers do not reuse a fallible function's name for an infallible
/// one — and rule code escapes the rare false positive with a
/// `flowcheck: allow-<rule>` marker.
namespace fairlaw::analysis {

/// One indexed declaration.
struct FallibleFn {
  std::string file;       // repo-relative header path
  size_t line = 0;        // line of the declaration's first token
  std::string qualified;  // e.g. "fairlaw::Table::GetColumn"
  std::string name;       // unqualified, e.g. "GetColumn"
  std::string return_type;  // "Status", "Result<Table>", "Status&", ...
  bool by_value = false;    // false for `const Status&` accessors
  bool has_nodiscard = false;  // FAIRLAW_NODISCARD present on the decl
};

class SignatureIndex {
 public:
  /// Indexes every Status/Result<T>-returning declaration found in one
  /// header's token stream. `rel_path` labels the entries; `tokens` is
  /// the lexer output for the header.
  void AddHeader(const std::string& rel_path, std::span<const Token> tokens);

  /// All indexed declarations, in scan order (callers sort as needed).
  const std::vector<FallibleFn>& functions() const { return functions_; }

  /// True when some indexed declaration with a by-value Status/Result
  /// return carries this unqualified name. This is the set the
  /// error-flow rules match call sites against: a discarded return from
  /// any of these loses an error.
  bool IsFallible(std::string_view name) const {
    return by_value_names_.count(name) > 0;
  }

 private:
  std::vector<FallibleFn> functions_;
  std::set<std::string, std::less<>> by_value_names_;
};

}  // namespace fairlaw::analysis

#endif  // FAIRLAW_TOOLS_ANALYSIS_INDEX_H_
