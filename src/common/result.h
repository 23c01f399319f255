// Result<T>: a value or a Status, in the spirit of arrow::Result.

#ifndef BMEH_COMMON_RESULT_H_
#define BMEH_COMMON_RESULT_H_

#include <utility>
#include <variant>

#include "src/common/logging.h"
#include "src/common/status.h"

namespace bmeh {

/// \brief Holds either a successfully computed T or the Status explaining
/// why it could not be computed.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : v_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from a non-OK status (failure).
  Result(Status st) : v_(std::move(st)) {  // NOLINT(runtime/explicit)
    BMEH_CHECK(!std::get<Status>(v_).ok())
        << "Result constructed from OK Status";
  }

  /// \brief True iff a value is present.
  bool ok() const { return std::holds_alternative<T>(v_); }

  /// \brief The status: OK when a value is present.  A reference, so
  /// testing an error Result (a Get's KeyError, say) copies no message.
  const Status& status() const& {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(v_);
  }

  /// \brief The status of a temporary, moved out, so that
  /// `const Status& st = F().status();` holds no dangling reference.
  Status status() && {
    return ok() ? Status::OK() : std::move(std::get<Status>(v_));
  }

  /// \brief The value; dies if this Result holds an error.
  const T& ValueOrDie() const& {
    BMEH_CHECK(ok()) << "ValueOrDie on error Result: " << status();
    return std::get<T>(v_);
  }

  /// \brief Moves the value out; dies if this Result holds an error.
  T ValueOrDie() && {
    BMEH_CHECK(ok()) << "ValueOrDie on error Result: " << status();
    return std::move(std::get<T>(v_));
  }

  /// \brief The value, or `fallback` on error.
  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

  const T& operator*() const& { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }

 private:
  std::variant<Status, T> v_;
};

}  // namespace bmeh

#endif  // BMEH_COMMON_RESULT_H_
