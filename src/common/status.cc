#include "common/status.h"

#include <cstdio>
#include <cstdlib>

#include "common/result.h"

namespace itag {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kIOError:
      return "io_error";
    case StatusCode::kCorruption:
      return "corruption";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kAborted:
      return "aborted";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {

void DieOnFailedResult(const Status& status) {
  std::fprintf(stderr, "value() of a failed Result: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal

}  // namespace itag
