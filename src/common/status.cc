#include "common/status.h"

namespace dema {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kSerializationError:
      return "SerializationError";
    case StatusCode::kNetworkError:
      return "NetworkError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

const std::string& Status::EmptyMessage() {
  static const std::string empty;
  return empty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(state_->code);
  if (!state_->message.empty()) {
    out += ": ";
    out += state_->message;
  }
  return out;
}

}  // namespace dema
