#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace dfi {
namespace {

LogLevel g_log_level = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_log_level = level; }

LogLevel GetLogLevel() { return g_log_level; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= GetLogLevel() || level_ == LogLevel::kFatal) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace dfi
