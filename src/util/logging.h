// Minimal leveled logging. The adaptive VM logs strategy switches at kDebug
// so benchmark output stays clean by default.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace avm {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global log threshold; messages below it are dropped.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) {
    stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
  ~LogMessage() { std::fprintf(stderr, "%s\n", stream_.str().c_str()); }
  std::ostringstream& stream() { return stream_; }

 private:
  static const char* LevelName(LogLevel l) {
    switch (l) {
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarning: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
  }
  static const char* Basename(const char* path) {
    const char* base = path;
    for (const char* p = path; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    return base;
  }
  std::ostringstream stream_;
};
}  // namespace internal

/// `AVM_LOG(kDebug) << a << b;` — below the threshold the statement costs
/// one level check: no LogMessage is built and `a`, `b` are not evaluated.
/// (The empty then-branch keeps a caller's trailing `else` bound to the
/// caller's own `if`.)
#define AVM_LOG(level)                                                 \
  if (::avm::LogLevel::level < ::avm::GetLogLevel()) {                 \
  } else                                                               \
    ::avm::internal::LogMessage(::avm::LogLevel::level, __FILE__,      \
                                __LINE__)                              \
        .stream()

}  // namespace avm
