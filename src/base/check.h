#ifndef FAIRLAW_BASE_CHECK_H_
#define FAIRLAW_BASE_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <source_location>

#include "base/status.h"

/// Internal-invariant checks. These fire regardless of NDEBUG: a violated
/// invariant inside the library is a bug, and continuing would corrupt
/// results that downstream users may act on. User-facing validation must
/// use Status instead — see the "CHECK vs Status" contract in README.md.
///
/// Every check carries a message so that a crash in a deployed audit names
/// the violated invariant, not just a stringified expression. The
/// fairlaw_check `bare-check` rule enforces this: a bare
/// FAIRLAW_CHECK(cond) in library code is a finding; use
/// FAIRLAW_CHECK_MSG.

namespace fairlaw::internal {

[[noreturn]] inline void CheckFailed(
    const char* kind, const char* condition, const char* message,
    const std::source_location& loc = std::source_location::current()) {
  std::fprintf(stderr, "%s failed at %s:%u in %s: %s (%s)\n", kind,
               loc.file_name(), loc.line(), loc.function_name(), condition,
               message);
  std::abort();
}

/// Bounds-checked index validation: aborts with file/line context when
/// `index >= size`. Used by FAIRLAW_BOUNDS_CHECK; kept as a function so the
/// cold failure path stays out of the caller's hot loop.
inline void CheckIndex(
    size_t index, size_t size,
    const std::source_location& loc = std::source_location::current()) {
  if (index >= size) {
    std::fprintf(stderr,
                 "FAIRLAW_BOUNDS_CHECK failed at %s:%u in %s: index %zu out "
                 "of range for size %zu\n",
                 loc.file_name(), loc.line(), loc.function_name(), index,
                 size);
    std::abort();
  }
}

}  // namespace fairlaw::internal

#define FAIRLAW_CHECK(cond)                                               \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::fairlaw::internal::CheckFailed("FAIRLAW_CHECK", #cond,            \
                                       "invariant violated");             \
    }                                                                     \
  } while (false)

#define FAIRLAW_CHECK_MSG(cond, msg)                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::fairlaw::internal::CheckFailed("FAIRLAW_CHECK", #cond, msg);      \
    }                                                                     \
  } while (false)

/// Aborts when a Status-returning expression is not OK. For call sites
/// where failure is impossible by construction and returning the Status
/// would only launder a library bug into a user error.
#define FAIRLAW_CHECK_OK(expr)                                            \
  do {                                                                    \
    ::fairlaw::Status _fairlaw_check_st = (expr);                         \
    if (!_fairlaw_check_st.ok()) {                                        \
      ::fairlaw::internal::CheckFailed(                                   \
          "FAIRLAW_CHECK_OK", #expr,                                      \
          _fairlaw_check_st.ToString().c_str());                          \
    }                                                                     \
  } while (false)

/// Marks a branch that is unreachable if the surrounding logic is correct
/// (e.g. the default of a switch over a closed enum). Always aborts.
#define FAIRLAW_NOTREACHED(msg)                                           \
  ::fairlaw::internal::CheckFailed("FAIRLAW_NOTREACHED", "unreachable",   \
                                   msg)

/// Debug-only invariant check: compiled out under NDEBUG. Use on hot paths
/// where the Release build cannot afford the branch but sanitizer/debug
/// builds should still verify the invariant.
#ifdef NDEBUG
#define FAIRLAW_DCHECK(cond, msg) \
  do {                            \
  } while (false)
#else
#define FAIRLAW_DCHECK(cond, msg) FAIRLAW_CHECK_MSG(cond, msg)
#endif

/// Debug-only OK-check: compiled out under NDEBUG, so `expr` is NOT
/// evaluated in release builds. Only wrap pure queries whose failure
/// would already be a bug; a fallible call with side effects inside
/// this macro silently vanishes from production — the fairlaw_check
/// rule `dcheck-side-effect` rejects exactly that shape.
#ifdef NDEBUG
#define FAIRLAW_DCHECK_OK(expr) \
  do {                          \
  } while (false)
#else
#define FAIRLAW_DCHECK_OK(expr) FAIRLAW_CHECK_OK(expr)
#endif

/// Aborts unless `index < size`. Cheap enough for hot paths; reports the
/// offending index and container size with source location.
#define FAIRLAW_BOUNDS_CHECK(index, size)                                 \
  ::fairlaw::internal::CheckIndex(static_cast<size_t>(index),             \
                                  static_cast<size_t>(size))

#endif  // FAIRLAW_BASE_CHECK_H_
