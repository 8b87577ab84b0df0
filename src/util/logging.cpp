#include "util/logging.h"

#include <atomic>
#include <iostream>
#include <string>

namespace holmes {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarning};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

namespace detail {

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  // One write per line, so lines logged by concurrent threads (tune's
  // worker pool) never interleave.
  const std::string line =
      std::string("[holmes ") + level_name(level) + "] " + message + '\n';
  std::cerr << line;
}

}  // namespace detail
}  // namespace holmes
