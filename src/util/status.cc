#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace qa::util {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result = StatusCodeName(code_);
  if (!message_.empty()) {
    result += ": ";
    result += message_;
  }
  return result;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

void AbortUnlessOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "FATAL: %s: %s\n", what, status.ToString().c_str());
  std::abort();
}

}  // namespace qa::util
