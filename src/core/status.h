// oisa_core: typed error taxonomy for recoverable boundaries.
//
// The campaign layer (checkpointing, sharded grids, the serving daemon to
// come) needs to tell *what kind* of failure happened so it can pick the
// right recovery: a Corruption from a checkpoint load falls back to
// recompute, an IoError is retryable, an InvalidInput is a caller bug and
// must surface immediately, a Deadline aborts cleanly with partial
// results. Status/StatusOr carry that taxonomy across the recoverable
// boundaries — .bench import, model (de)serialization, checkpoint load,
// output file writes, CLI parsing — while plain exceptions remain
// reserved for internal invariant violations.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace oisa::core {

/// What kind of failure a Status reports (recovery is keyed off this).
enum class StatusCode {
  Ok = 0,
  InvalidInput,  ///< malformed caller-supplied data; not retryable
  Corruption,    ///< stored data failed integrity checks; recompute
  IoError,       ///< the environment failed (open/read/write); retryable
  Deadline,      ///< a wall-clock deadline or cancellation fired
  Internal,      ///< invariant violation escaping as a value (bug)
};

[[nodiscard]] constexpr const char* statusCodeName(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::Ok: return "Ok";
    case StatusCode::InvalidInput: return "InvalidInput";
    case StatusCode::Corruption: return "Corruption";
    case StatusCode::IoError: return "IoError";
    case StatusCode::Deadline: return "Deadline";
    case StatusCode::Internal: return "Internal";
  }
  return "Unknown";
}

/// A success/error value: code + human-readable diagnostic.
class [[nodiscard]] Status {
 public:
  /// Success.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok() { return Status{}; }
  [[nodiscard]] static Status invalidInput(std::string message) {
    return {StatusCode::InvalidInput, std::move(message)};
  }
  [[nodiscard]] static Status corruption(std::string message) {
    return {StatusCode::Corruption, std::move(message)};
  }
  [[nodiscard]] static Status ioError(std::string message) {
    return {StatusCode::IoError, std::move(message)};
  }
  [[nodiscard]] static Status deadline(std::string message) {
    return {StatusCode::Deadline, std::move(message)};
  }
  [[nodiscard]] static Status internal(std::string message) {
    return {StatusCode::Internal, std::move(message)};
  }

  [[nodiscard]] bool isOk() const noexcept { return code_ == StatusCode::Ok; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

  /// `"Corruption: checkpoint ... crc mismatch"` (or `"Ok"`).
  [[nodiscard]] std::string toString() const {
    if (isOk()) return "Ok";
    return std::string(statusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::Ok;
  std::string message_;
};

/// Exception bridge: thrown by the convenience throwing wrappers around
/// Status-returning boundaries, so legacy callers keep one catch site
/// while new callers branch on the typed code.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.toString()), status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const noexcept { return status_; }
  [[nodiscard]] StatusCode code() const noexcept { return status_.code(); }

 private:
  Status status_;
};

/// Throws StatusError when `status` is not Ok (the throwing-wrapper shim).
inline void throwIfError(const Status& status) {
  if (!status.isOk()) throw StatusError(status);
}

/// Either a value or an error Status. Deliberately tiny: no implicit
/// conversions from T, no reference support — enough for the boundaries
/// this repo converts.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (status_.isOk()) {
      status_ = Status::internal("StatusOr constructed from an Ok Status");
    }
  }
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  [[nodiscard]] bool isOk() const noexcept { return status_.isOk(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  /// Value access; only valid when isOk(). The throwing accessor is the
  /// bridge for legacy call sites.
  [[nodiscard]] const T& value() const& { return *value_; }
  [[nodiscard]] T& value() & { return *value_; }
  [[nodiscard]] T&& value() && { return *std::move(value_); }

  /// Returns the value or throws StatusError.
  [[nodiscard]] T&& valueOrThrow() && {
    throwIfError(status_);
    return *std::move(value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace oisa::core
