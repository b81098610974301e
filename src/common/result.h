#ifndef ITAG_COMMON_RESULT_H_
#define ITAG_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace itag {

namespace internal {
/// Prints `status` to stderr and aborts: what reading the value of a failed
/// Result does.
[[noreturn]] void DieOnFailedResult(const Status& status);
}  // namespace internal

/// Value-or-Status, the library's substitute for exceptions on fallible
/// functions that produce a value. A Result is either OK and holds a T, or
/// non-OK and holds only the Status.
///
/// Typical usage:
///   Result<TableId> r = db.CreateTable(schema);
///   if (!r.ok()) return r.status();
///   TableId id = r.value();
template <typename T>
class Result {
 public:
  /// Constructs an OK result holding a copy/move of `value`.
  Result(T value)  // NOLINT: implicit by design, mirrors absl::StatusOr
      : status_(Status::OK()), value_(std::move(value)) {}

  /// Constructs a failed result. `status` must not be OK.
  Result(Status status)  // NOLINT: implicit by design
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  /// True iff a value is present.
  bool ok() const { return status_.ok(); }

  /// The status (OK when a value is present).
  const Status& status() const { return status_; }

  /// The held value. On a failed result it prints the status and aborts,
  /// in every build.
  const T& value() const& {
    if (!ok()) internal::DieOnFailedResult(status_);
    return *value_;
  }
  T& value() & {
    if (!ok()) internal::DieOnFailedResult(status_);
    return *value_;
  }
  T&& value() && {
    if (!ok()) internal::DieOnFailedResult(status_);
    return std::move(*value_);
  }

  /// Returns the value, or `fallback` when the result failed.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Assigns the value of a Result expression to `lhs`, or propagates its error.
/// Usage: ITAG_ASSIGN_OR_RETURN(auto id, db.CreateTable(schema));
#define ITAG_ASSIGN_OR_RETURN(lhs, expr)              \
  ITAG_ASSIGN_OR_RETURN_IMPL_(                        \
      ITAG_RESULT_CONCAT_(_itag_result_, __LINE__), lhs, expr)

#define ITAG_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr)   \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

#define ITAG_RESULT_CONCAT_(a, b) ITAG_RESULT_CONCAT_IMPL_(a, b)
#define ITAG_RESULT_CONCAT_IMPL_(a, b) a##b

}  // namespace itag

#endif  // ITAG_COMMON_RESULT_H_
