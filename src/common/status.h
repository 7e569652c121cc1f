#ifndef DFI_COMMON_STATUS_H_
#define DFI_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace dfi {

/// Error categories for fallible DFI operations. Mirrors the small set of
/// failure classes the library can report; the hot data path never returns a
/// Status (it uses enum result codes instead).
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,
  kUnavailable,
  kInternal,
  kUnimplemented,
  kDeadlineExceeded,
  kPeerFailed,
  kAborted,
};

/// Returns a stable human-readable name ("Ok", "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Value-semantic error type used throughout DFI instead of exceptions
/// (Google/Arrow/RocksDB idiom). An OK status carries no allocation, and
/// moving one is a pointer move: hot paths such as a push return OK per
/// tuple, and moving an inline std::string costs a libc memcpy call.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty()
                     ? nullptr
                     : std::make_unique<std::string>(std::move(message))) {}

  Status(const Status& other)
      : code_(other.code_), message_(Clone(other.message_)) {}
  Status& operator=(const Status& other) {
    code_ = other.code_;
    message_ = Clone(other.message_);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status PeerFailed(std::string msg) {
    return Status(StatusCode::kPeerFailed, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const;

  /// "Ok" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message() == other.message();
  }

 private:
  static std::unique_ptr<std::string> Clone(
      const std::unique_ptr<std::string>& message) {
    return message == nullptr ? nullptr
                              : std::make_unique<std::string>(*message);
  }

  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<std::string> message_;  // null when empty
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Union of a Status and a value; holds the value iff status().ok().
/// Minimal analogue of absl::StatusOr, sufficient for DFI's APIs.
template <typename T>
class StatusOr {
 public:
  /// Implicitly constructible from an error Status (must not be OK) ...
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {}
  /// ... or from a value.
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)), has_value_(true) {}

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

  const T& operator*() const& { return value_; }
  T& operator*() & { return value_; }
  const T* operator->() const { return &value_; }
  T* operator->() { return &value_; }

 private:
  Status status_;
  T value_{};
  bool has_value_ = false;
};

/// Propagates a non-OK status to the caller.
#define DFI_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::dfi::Status _dfi_status = (expr);        \
    if (!_dfi_status.ok()) return _dfi_status; \
  } while (0)

/// Evaluates a StatusOr expression, propagating errors, else binds the value.
#define DFI_ASSIGN_OR_RETURN(lhs, expr)                  \
  DFI_ASSIGN_OR_RETURN_IMPL(                             \
      DFI_STATUS_MACRO_CONCAT(_dfi_statusor, __LINE__), lhs, expr)
#define DFI_ASSIGN_OR_RETURN_IMPL(var, lhs, expr) \
  auto var = (expr);                              \
  if (!var.ok()) return var.status();             \
  lhs = std::move(var).value()
#define DFI_STATUS_MACRO_CONCAT(x, y) DFI_STATUS_MACRO_CONCAT_IMPL(x, y)
#define DFI_STATUS_MACRO_CONCAT_IMPL(x, y) x##y

}  // namespace dfi

#endif  // DFI_COMMON_STATUS_H_
