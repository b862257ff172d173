#ifndef QAMARKET_UTIL_STATUS_H_
#define QAMARKET_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace qa::util {

/// Error category for a failed operation.
///
/// The library does not use exceptions (per the Google style guide); fallible
/// operations return a Status or a StatusOr<T> instead, in the spirit of the
/// Status types used by Arrow and RocksDB.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: either OK or a code plus a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

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
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Stops the process with "FATAL: <what>: <status>" unless `status` is OK:
/// the fate of a config that would silently simulate nonsense, or of a
/// finished run whose counts cannot be trusted.
void AbortUnlessOk(const Status& status, const char* what);

/// Either a value of type T or an error Status.
///
/// Accessing the value of a non-OK StatusOr is a programming error and
/// asserts in debug builds.
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value (mirrors absl::StatusOr).
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value, or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace qa::util

/// Propagates a non-OK Status out of the current function.
#define QA_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::qa::util::Status _qa_status = (expr);       \
    if (!_qa_status.ok()) return _qa_status;      \
  } while (false)

#endif  // QAMARKET_UTIL_STATUS_H_
