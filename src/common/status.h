// Status: lightweight error propagation for all fallible library paths.
//
// The library does not throw exceptions (database-engine idiom, cf. Arrow /
// RocksDB): every fallible operation returns a Status or a Result<T>, and
// callers propagate with BMEH_RETURN_NOT_OK / BMEH_ASSIGN_OR_RETURN.

#ifndef BMEH_COMMON_STATUS_H_
#define BMEH_COMMON_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace bmeh {

/// \brief Machine-readable category of a Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalid = 1,        ///< Invalid argument or malformed request.
  kKeyError = 2,       ///< Key not found.
  kAlreadyExists = 3,  ///< Duplicate key on insert.
  kCapacityError = 4,  ///< A structural limit was exceeded.
  kIoError = 5,        ///< Underlying page store failure.
  kCorruption = 6,     ///< Structural invariant violated / bad on-disk data.
  kNotImplemented = 7, ///< Feature not available.
  kDataLoss = 8,       ///< Verified corruption: data is unrecoverable here.
  kResourceExhausted = 9,  ///< Out of pages/disk/memory; retryable.
  kUnavailable = 10,       ///< Routed to a down shard / service; retryable.
};

/// \brief Human-readable name of a StatusCode (e.g. "Invalid").
const char* StatusCodeName(StatusCode code);

/// \brief Outcome of an operation: OK, or a code plus a message.
///
/// An OK status carries no allocation; error states allocate a small
/// heap block holding the code and message.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&& other) noexcept = default;
  Status& operator=(Status&& other) noexcept = default;

  /// \brief Returns an OK status.
  static Status OK() { return Status(); }

  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalid, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status CapacityError(std::string msg) {
    return Status(StatusCode::kCapacityError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  /// \brief True iff the operation succeeded.
  bool ok() const { return state_ == nullptr; }

  /// \brief The status code (kOk when ok()).
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }

  bool IsInvalid() const { return code() == StatusCode::kInvalid; }
  bool IsKeyError() const { return code() == StatusCode::kKeyError; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsCapacityError() const { return code() == StatusCode::kCapacityError; }
  bool IsIoError() const { return code() == StatusCode::kIoError; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsNotImplemented() const {
    return code() == StatusCode::kNotImplemented;
  }
  bool IsDataLoss() const { return code() == StatusCode::kDataLoss; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }

  /// \brief True when the failed operation may simply be retried later and
  /// succeed, with no repair or recovery step in between.  This is a
  /// *guarantee* about the failing layer's state: an operation that fails
  /// transiently left every structure (in memory and on disk) exactly as it
  /// was before the call.  IoError is deliberately not transient — a failed
  /// write or fsync leaves the durable state unknown, so blind retry is not
  /// safe.  ResourceExhausted qualifies (the quota check rejects before any
  /// mutation), and so does Unavailable (the request never reached the down
  /// shard at all).
  bool IsTransient() const {
    return code() == StatusCode::kResourceExhausted ||
           code() == StatusCode::kUnavailable;
  }

  /// \brief The error message ("" when ok()).
  const std::string& message() const;

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  // nullptr means OK.
  std::unique_ptr<State> state_;
};

std::ostream& operator<<(std::ostream& os, const Status& st);

}  // namespace bmeh

/// \brief Propagates a non-OK Status to the caller.
#define BMEH_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::bmeh::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                   \
  } while (false)

#define BMEH_CONCAT_IMPL(x, y) x##y
#define BMEH_CONCAT(x, y) BMEH_CONCAT_IMPL(x, y)

/// \brief Evaluates a Result<T> expression; on error returns the Status,
/// otherwise moves the value into `lhs`.
#define BMEH_ASSIGN_OR_RETURN(lhs, rexpr)                               \
  BMEH_ASSIGN_OR_RETURN_IMPL(BMEH_CONCAT(_res_, __COUNTER__), lhs, rexpr)

#define BMEH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return std::move(tmp).status();    \
  lhs = std::move(tmp).ValueOrDie()

#endif  // BMEH_COMMON_STATUS_H_
