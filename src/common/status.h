#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace dema {

/// \brief Error category for a failed operation.
///
/// Follows the Arrow/RocksDB convention: library functions that can fail
/// return a `Status` (or `Result<T>`) instead of throwing. `StatusCode::kOk`
/// signals success.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,
  kSerializationError,
  kNetworkError,
  kInternal,
  kNotImplemented,
  kCancelled,
};

/// \brief Returns a human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation that may fail.
///
/// One pointer, as in Arrow: null when OK, so building, returning, testing
/// and destroying an OK status touch no heap and no string; an error owns a
/// heap `{code, message}` that copies deep. Use the static factories, e.g.
/// `Status::InvalidArgument("gamma must be >= 2")`.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  /// Constructs a status with the given code and message. A `kOk` code
  /// gives an OK status and drops the message.
  Status(StatusCode code, std::string message)
      : state_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_unique<State>(State{code, std::move(message)})) {}

  Status(const Status& other)
      : state_(other.state_ ? std::make_unique<State>(*other.state_)
                            : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Returns an OK status.
  static Status OK() { return Status(); }
  /// Returns an InvalidArgument status with \p message.
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  /// Returns an OutOfRange status with \p message.
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  /// Returns a NotFound status with \p message.
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  /// Returns an AlreadyExists status with \p message.
  static Status AlreadyExists(std::string message) {
    return Status(StatusCode::kAlreadyExists, std::move(message));
  }
  /// Returns a FailedPrecondition status with \p message.
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  /// Returns a ResourceExhausted status with \p message.
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  /// Returns a SerializationError status with \p message.
  static Status SerializationError(std::string message) {
    return Status(StatusCode::kSerializationError, std::move(message));
  }
  /// Returns a NetworkError status with \p message.
  static Status NetworkError(std::string message) {
    return Status(StatusCode::kNetworkError, std::move(message));
  }
  /// Returns an Internal status with \p message.
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  /// Returns a NotImplemented status with \p message.
  static Status NotImplemented(std::string message) {
    return Status(StatusCode::kNotImplemented, std::move(message));
  }
  /// Returns a Cancelled status with \p message.
  static Status Cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }

  /// True iff the status is OK.
  bool ok() const { return state_ == nullptr; }
  /// The status code.
  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }
  /// The error message (empty for OK).
  const std::string& message() const {
    return state_ ? state_->message : EmptyMessage();
  }

  /// Returns "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  /// The one empty string every OK status's `message()` refers to.
  static const std::string& EmptyMessage();

  std::unique_ptr<State> state_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace dema

/// \brief Propagates a non-OK status to the caller.
#define DEMA_RETURN_NOT_OK(expr)                  \
  do {                                            \
    ::dema::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                    \
  } while (0)
