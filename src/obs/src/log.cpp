#include "ppd/obs/log.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>

#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"
#include "ppd/util/strings.hpp"

namespace ppd::obs {

namespace {

/// ISO-8601 UTC with millisecond precision.
std::string timestamp_utc() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

LogLevel log_level_from_string(std::string_view s) {
  using util::iequals;
  if (iequals(s, "trace")) return LogLevel::kTrace;
  if (iequals(s, "debug")) return LogLevel::kDebug;
  if (iequals(s, "info")) return LogLevel::kInfo;
  if (iequals(s, "warn") || iequals(s, "warning")) return LogLevel::kWarn;
  if (iequals(s, "error")) return LogLevel::kError;
  if (iequals(s, "off") || iequals(s, "none")) return LogLevel::kOff;
  throw ParseError("unknown log level: " + std::string(s) +
                   " (use trace|debug|info|warn|error|off)");
}

Logger::Logger() : text_(&std::cerr) {}

Logger& Logger::global() {
  // Leaked singleton: log calls may come from worker threads during static
  // destruction of other translation units.
  static Logger* l = new Logger();
  return *l;
}

void Logger::set_text_stream(std::ostream* os) {
  const std::lock_guard<std::mutex> lock(mutex_);
  text_ = os;
}

void Logger::set_json_path(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (path.empty()) {
    json_.reset();
    return;
  }
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  PPD_REQUIRE(file->good(), "cannot open log JSONL sink: " + path);
  json_ = std::move(file);
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message, const std::vector<LogField>& fields) {
  if (!enabled(level) || level == LogLevel::kOff) return;
  const std::string ts = timestamp_utc();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (text_ != nullptr) {
    *text_ << '[' << ts << "] " << log_level_name(level) << ' ' << component
           << ": " << message;
    for (const LogField& f : fields) *text_ << ' ' << f.key << '=' << f.value;
    *text_ << '\n';
  }
  if (json_ != nullptr) {
    *json_ << "{\"ts\":\"" << ts << "\",\"level\":\"" << log_level_name(level)
           << "\",\"component\":" << util::json::quote(component)
           << ",\"msg\":" << util::json::quote(message);
    for (const LogField& f : fields)
      *json_ << ',' << util::json::quote(f.key) << ':'
             << util::json::quote(f.value);
    *json_ << "}\n";
    json_->flush();
  }
}

RateLimit::RateLimit(std::uint32_t max_per_window, double window_seconds)
    : max_per_window_(max_per_window),
      window_us_(static_cast<std::int64_t>(window_seconds * 1e6)) {
  if (window_us_ < 1) window_us_ = 1;
}

bool RateLimit::allow() {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  std::int64_t start = window_start_us_.load(std::memory_order_relaxed);
  if (now - start >= window_us_) {
    // First thread to move the window resets the budget; losers just use
    // the fresh window.
    if (window_start_us_.compare_exchange_strong(start, now,
                                                 std::memory_order_relaxed))
      count_.store(0, std::memory_order_relaxed);
  }
  if (count_.fetch_add(1, std::memory_order_relaxed) < max_per_window_)
    return true;
  suppressed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace ppd::obs
