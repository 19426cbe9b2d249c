#ifndef FAIRLAW_BASE_STATUS_H_
#define FAIRLAW_BASE_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

/// Marks a Status/Result<T>-returning declaration so the compiler warns
/// when a caller drops the return value on the floor. Every fallible
/// declaration in src/** headers must carry it — the fairlaw_check rule
/// `nodiscard-missing` enforces the sweep, and its `discarded-status`
/// rule catches the call sites the compiler cannot see (macro bodies,
/// cross-TU templates). Spelled as a macro rather than a bare attribute
/// so the analysis passes can match one canonical token.
#define FAIRLAW_NODISCARD [[nodiscard]]

namespace fairlaw {

/// Error category carried by a Status.
///
/// The set mirrors the categories used by columnar/storage libraries: a
/// small closed enum that callers can switch on, with the human-readable
/// detail carried separately in the message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kIOError = 5,
  kNotImplemented = 6,
  kFailedPrecondition = 7,
  kInternal = 8,
};

/// Returns the canonical lowercase name of a status code ("invalid
/// argument", "io error", ...). Never fails; unknown codes map to
/// "unknown".
std::string_view StatusCodeToString(StatusCode code);

/// Operation outcome: either OK or an error code plus message.
///
/// fairlaw does not throw exceptions across public API boundaries;
/// every fallible operation returns a Status (or a Result<T>, which wraps
/// one). The OK state is represented by a null internal pointer so that
/// passing and returning OK statuses is free of allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Constructs a status with the given code and message. `code` must not
  /// be kOk; use the default constructor (or OK()) for success.
  Status(StatusCode code, std::string message);

  /// Returns an OK status.
  FAIRLAW_NODISCARD static Status OK() { return Status(); }

  FAIRLAW_NODISCARD static Status Invalid(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  FAIRLAW_NODISCARD static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  FAIRLAW_NODISCARD static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  FAIRLAW_NODISCARD static Status AlreadyExists(std::string message) {
    return Status(StatusCode::kAlreadyExists, std::move(message));
  }
  FAIRLAW_NODISCARD static Status IOError(std::string message) {
    return Status(StatusCode::kIOError, std::move(message));
  }
  FAIRLAW_NODISCARD static Status NotImplemented(std::string message) {
    return Status(StatusCode::kNotImplemented, std::move(message));
  }
  FAIRLAW_NODISCARD static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  FAIRLAW_NODISCARD static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  /// True iff the status is OK.
  bool ok() const { return state_ == nullptr; }

  /// Returns the status code (kOk if ok()).
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }

  /// Returns the error message, or an empty string if ok().
  const std::string& message() const;

  /// Renders "OK" or "<code name>: <message>".
  std::string ToString() const;

  /// Returns true if the code matches.
  bool IsInvalid() const { return code() == StatusCode::kInvalidArgument; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsNotImplemented() const {
    return code() == StatusCode::kNotImplemented;
  }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsInternal() const { return code() == StatusCode::kInternal; }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };

  void CopyFrom(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }

  std::unique_ptr<State> state_;  // null means OK
};

}  // namespace fairlaw

/// Evaluates `expr` (a Status expression); if it is not OK, returns it from
/// the enclosing function.
#define FAIRLAW_RETURN_NOT_OK(expr)                 \
  do {                                              \
    ::fairlaw::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                      \
  } while (false)

#endif  // FAIRLAW_BASE_STATUS_H_
