#include "common/status.h"

namespace dfi {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kPeerFailed:
      return "PeerFailed";
    case StatusCode::kAborted:
      return "Aborted";
  }
  return "Unknown";
}

const std::string& Status::message() const {
  static const std::string* const kEmpty = new std::string();  // never freed
  return message_ == nullptr ? *kEmpty : *message_;
}

std::string Status::ToString() const {
  if (ok()) return "Ok";
  std::string out = StatusCodeToString(code_);
  if (message_ != nullptr) {
    out += ": ";
    out += *message_;
  }
  return out;
}

}  // namespace dfi
