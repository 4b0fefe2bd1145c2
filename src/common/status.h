#ifndef DIME_COMMON_STATUS_H_
#define DIME_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

/// \file status.h
/// Structured error propagation (glog-free, exception-free): a `Status`
/// carries a machine-readable code plus a human-readable message, and
/// `StatusOr<T>` is either a value or a non-OK Status. This is the error
/// vocabulary of the whole library: ingestion distinguishes a missing file
/// from a malformed one, the engines report deadline truncation, and the
/// parallel driver surfaces captured worker faults — instead of aborting.
///
/// Usage:
///   Status DoWork() {
///     DIME_RETURN_IF_ERROR(Prepare());
///     DIME_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
///     ...
///     return OkStatus();
///   }

namespace dime {

/// Error codes, loosely following absl/gRPC canonical codes but restricted
/// to what the library actually needs. Values are stable (serialized in
/// logs / CLI exit paths); append only.
enum class StatusCode : int {
  kOk = 0,
  /// The caller passed something invalid (empty training set, bad rule).
  kInvalidArgument = 1,
  /// A referenced resource does not exist (file not found / unopenable).
  kNotFound = 2,
  /// An IO operation failed after the resource was found (read/write).
  kIoError = 3,
  /// Input was read but is not syntactically valid (bad TSV header).
  kParseError = 4,
  /// Input parsed but disagrees with the expected schema (row width).
  kSchemaMismatch = 5,
  /// A deadline expired before the computation finished; partial results
  /// may accompany this code.
  kDeadlineExceeded = 6,
  /// The caller cancelled the computation via a CancellationToken.
  kCancelled = 7,
  /// An internal invariant failed (captured worker-thread fault).
  kInternal = 8,
  /// A bounded resource is full and the request was shed rather than
  /// queued (serving-layer admission control; retry later).
  kResourceExhausted = 9,
  /// The service is shutting down (or not yet started) and cannot take
  /// new work; unlike RESOURCE_EXHAUSTED, retrying will not help.
  kUnavailable = 10,
  /// Stored data is unrecoverably damaged: a checksum mismatch or an
  /// internally inconsistent snapshot section. Unlike PARSE_ERROR (the
  /// bytes never were valid), DATA_LOSS means valid data was written and
  /// has since been corrupted; re-create the artifact from its source.
  kDataLoss = 11,
};

/// Human-readable name of a code ("NOT_FOUND", ...).
const char* StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName: true and sets *code when `name` is a known
/// code name ("OK", "RESOURCE_EXHAUSTED", ...). Used by wire clients that
/// must reconstruct a Status from its serialized name.
bool StatusCodeFromName(std::string_view name, StatusCode* code);

/// Marked [[nodiscard]] at class level: every function returning a Status
/// (or StatusOr) by value is compiler-enforced checked at every call site,
/// in every build, without annotating each declaration. The only sanctioned
/// discard is an explicit `(void)` cast carrying a
/// `// lint: unchecked-status-ok(<reason>)` waiver — `dime_lint` flags a
/// bare cast (see tools/lint/).
class [[nodiscard]] Status {
 public:
  /// Default: OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE_NAME>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }
  bool operator!=(const Status& other) const { return !(*this == other); }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status(); }

inline Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status IoError(std::string message) {
  return Status(StatusCode::kIoError, std::move(message));
}
inline Status ParseError(std::string message) {
  return Status(StatusCode::kParseError, std::move(message));
}
inline Status SchemaMismatchError(std::string message) {
  return Status(StatusCode::kSchemaMismatch, std::move(message));
}
inline Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
inline Status CancelledError(std::string message) {
  return Status(StatusCode::kCancelled, std::move(message));
}
inline Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
inline Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
inline Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
inline Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}

/// Either a T or a non-OK Status. Accessing the value of a non-OK
/// StatusOr is a programming error (asserted in debug; undefined in
/// release — always check ok() or use DIME_ASSIGN_OR_RETURN).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from a value (mirrors absl::StatusOr ergonomics).
  StatusOr(T value) : value_(std::move(value)) {}
  /// Implicit from a non-OK status. Constructing from OkStatus() is
  /// nonsensical and normalized to kInternal.
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = InternalError("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }

  /// The status: OK when a value is present.
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// The value, or `fallback` when non-OK.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

}  // namespace dime

/// Propagates a non-OK Status to the caller.
#define DIME_RETURN_IF_ERROR(expr)                 \
  do {                                             \
    ::dime::Status dime_status_ = (expr);          \
    if (!dime_status_.ok()) return dime_status_;   \
  } while (0)

#define DIME_STATUS_CONCAT_INNER_(a, b) a##b
#define DIME_STATUS_CONCAT_(a, b) DIME_STATUS_CONCAT_INNER_(a, b)

/// Evaluates a StatusOr expression; on success binds the value to `lhs`,
/// otherwise returns the error Status to the caller.
#define DIME_ASSIGN_OR_RETURN(lhs, expr)                             \
  DIME_ASSIGN_OR_RETURN_IMPL_(                                       \
      DIME_STATUS_CONCAT_(dime_statusor_, __LINE__), lhs, expr)

#define DIME_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

#endif  // DIME_COMMON_STATUS_H_
