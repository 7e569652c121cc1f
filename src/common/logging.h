#ifndef DFI_COMMON_LOGGING_H_
#define DFI_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace dfi {

/// Log severities; kFatal aborts the process after emitting the message.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Sets the minimum severity that is emitted (default kInfo).
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/// Stream-collecting helper behind the DFI_LOG macros. Emits on destruction;
/// aborts for kFatal.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the log statement is disabled.
struct LogMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace dfi

#define DFI_LOG_INTERNAL(level) \
  ::dfi::internal::LogMessage(level, __FILE__, __LINE__).stream()

/// Usage: DFI_LOG(INFO) << "message";
#define DFI_LOG(severity) DFI_LOG_##severity
#define DFI_LOG_DEBUG DFI_LOG_INTERNAL(::dfi::LogLevel::kDebug)
#define DFI_LOG_INFO DFI_LOG_INTERNAL(::dfi::LogLevel::kInfo)
#define DFI_LOG_WARNING DFI_LOG_INTERNAL(::dfi::LogLevel::kWarning)
#define DFI_LOG_ERROR DFI_LOG_INTERNAL(::dfi::LogLevel::kError)
#define DFI_LOG_FATAL DFI_LOG_INTERNAL(::dfi::LogLevel::kFatal)

/// Invariant check, active in all build modes (database-engine idiom: an
/// inconsistent flow state must never be silently ignored).
#define DFI_CHECK(cond)                                             \
  (cond) ? (void)0                                                  \
         : ::dfi::internal::LogMessageVoidify() &                   \
               DFI_LOG_INTERNAL(::dfi::LogLevel::kFatal)            \
                   << "Check failed: " #cond " "

#define DFI_CHECK_OK(expr)                                          \
  do {                                                              \
    ::dfi::Status _dfi_check_status = (expr);                       \
    DFI_CHECK(_dfi_check_status.ok()) << _dfi_check_status;         \
  } while (0)

#define DFI_CHECK_EQ(a, b) DFI_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define DFI_CHECK_NE(a, b) DFI_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define DFI_CHECK_LT(a, b) DFI_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define DFI_CHECK_LE(a, b) DFI_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define DFI_CHECK_GT(a, b) DFI_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define DFI_CHECK_GE(a, b) DFI_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#ifdef NDEBUG
#define DFI_DCHECK(cond) DFI_CHECK(true)
#else
#define DFI_DCHECK(cond) DFI_CHECK(cond)
#endif

#endif  // DFI_COMMON_LOGGING_H_
