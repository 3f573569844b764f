#include "ppd/obs/run.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <thread>

#include "ppd/obs/log.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/util/cli.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"
#include "ppd/util/strings.hpp"

// Build facts are injected by src/obs/CMakeLists.txt; the fallbacks keep
// non-CMake builds (e.g. IDE single-file checks) compiling.
#ifndef PPD_OBS_COMPILER
#define PPD_OBS_COMPILER "unknown"
#endif
#ifndef PPD_OBS_BUILD_TYPE
#define PPD_OBS_BUILD_TYPE "unknown"
#endif
#ifndef PPD_OBS_CXX_FLAGS
#define PPD_OBS_CXX_FLAGS ""
#endif
#ifndef PPD_OBS_SANITIZE
#define PPD_OBS_SANITIZE ""
#endif

namespace ppd::obs {

const BuildInfo& build_info() {
  static const BuildInfo info{PPD_OBS_COMPILER, PPD_OBS_BUILD_TYPE,
                              PPD_OBS_CXX_FLAGS, PPD_OBS_SANITIZE};
  return info;
}

std::string iso8601_utc_now() {
  const std::time_t secs =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec);
  return buf;
}

std::string run_meta_json(std::uint64_t seed, int threads,
                          const std::string& command) {
  const BuildInfo& b = build_info();
  std::string out = "{";
  out += "\"seed\": " + std::to_string(seed);
  out += ", \"threads\": " + std::to_string(threads);
  out += ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": " + util::json::quote(b.compiler);
  out += ", \"build_type\": " + util::json::quote(b.build_type);
  out += ", \"cxx_flags\": " + util::json::quote(b.flags);
  if (!b.sanitize.empty())
    out += ", \"sanitize\": " + util::json::quote(b.sanitize);
  out += ", \"timestamp\": \"" + iso8601_utc_now() + "\"";
  if (!command.empty())
    out += ", \"command\": " + util::json::quote(command);
  out += "}";
  return out;
}

bool consume_run_flag(std::string_view arg, RunOptions& opts) {
  const auto value_of = [&](std::string_view prefix) {
    return std::string(arg.substr(prefix.size()));
  };
  if (util::starts_with(arg, "--metrics=")) {
    opts.metrics_path = value_of("--metrics=");
  } else if (util::starts_with(arg, "--metrics-format=")) {
    opts.metrics_format = value_of("--metrics-format=");
  } else if (util::starts_with(arg, "--trace=")) {
    opts.trace_path = value_of("--trace=");
  } else if (util::starts_with(arg, "--log-level=")) {
    opts.log_level = value_of("--log-level=");
  } else if (util::starts_with(arg, "--log-json=")) {
    opts.log_json_path = value_of("--log-json=");
  } else {
    return false;
  }
  return true;
}

RunOptions extract_run_options(int& argc, char** argv) {
  RunOptions opts;
  opts.command = util::command_line(argc, argv);
  util::strip_args(argc, argv, [&opts](std::string_view arg) {
    return consume_run_flag(arg, opts);
  });
  return opts;
}

ScopedRun::ScopedRun(RunOptions options) : options_(std::move(options)) {
  if (!options_.log_level.empty())
    Logger::global().set_level(log_level_from_string(options_.log_level));
  if (!options_.log_json_path.empty())
    Logger::global().set_json_path(options_.log_json_path);
  if (!options_.metrics_format.empty())
    PPD_REQUIRE(options_.metrics_format == "json" ||
                    options_.metrics_format == "text",
                "--metrics-format must be json or text");
  if (!options_.trace_path.empty()) TraceSession::global().start();
}

void ScopedRun::finish() {
  if (finished_) return;
  finished_ = true;
  if (!options_.trace_path.empty()) {
    TraceSession& session = TraceSession::global();
    session.stop();
    std::ofstream os(options_.trace_path, std::ios::trunc);
    if (os.good()) {
      session.write_chrome_trace(os);
    } else {
      log_error("obs", "cannot write trace file",
                {{"path", options_.trace_path}});
    }
  }
  if (!options_.metrics_path.empty()) {
    const MetricsSnapshot snap = Registry::global().snapshot();
    const std::string meta =
        run_meta_json(seed_, threads_, options_.command);
    const auto write = [&](std::ostream& os) {
      if (options_.metrics_format == "text")
        write_metrics_text(os, snap);
      else
        write_metrics_json(os, snap, meta);
    };
    if (options_.metrics_path == "-") {
      write(std::cout);
    } else {
      std::ofstream os(options_.metrics_path, std::ios::trunc);
      if (os.good()) {
        write(os);
      } else {
        log_error("obs", "cannot write metrics file",
                  {{"path", options_.metrics_path}});
      }
    }
  }
}

ScopedRun::~ScopedRun() { finish(); }

}  // namespace ppd::obs
