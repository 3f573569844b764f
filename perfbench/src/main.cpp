// ppd_perfbench: runs one end-to-end benchmark workload per process.
//
//   ppd_perfbench --workload=NAME --seed=N --seconds=S [--trace=FILE]
//   ppd_perfbench --workload=NAME --seed=N --setup-only
//   ppd_perfbench --workload=NAME --capture
//
// The process sets the workload up, then repeats the workload's unit of work
// (one "iteration", identical every time) until S seconds have passed.
// Records go to stdout, one JSON object per line, for perfbench/run.py to
// turn into metrics:
//
//   {"type":"setup","seconds":...,"ready_ns":...}
//   {"type":"reference","threads":...,"seconds":...}
//   {"type":"iteration","warmup":true,...}      untimed warm-up, checked
//   {"type":"reference",...}
//   {"type":"iteration","traced":false,"wall_s":...,"cpu_s":...,...}
//   {"type":"reference",...}                    after every iteration
//   {"type":"finish","checks":{...}}
//   {"type":"summary","peak_rss_mb":...}
//
// ready_ns is the steady clock (CLOCK_MONOTONIC) at the end of set-up; a
// launcher that reads the same clock before starting the process gets the
// set-up time from process start. --setup-only stops after the set-up
// record and one reference record on one thread. --trace=FILE runs one more iteration with the ppd::obs tracer on
// and writes its Chrome trace to FILE. --capture prints the outputs of every
// input variant instead (the oracle files under perfbench/oracle/).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/trace.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace perfbench;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string trace;
  bool setup_only = false;
  bool capture = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (auto v = value("workload")) {
      a.workload = *v;
    } else if (auto v = value("seed")) {
      a.seed = std::stoull(*v);
    } else if (auto v = value("seconds")) {
      a.seconds = std::stod(*v);
    } else if (auto v = value("trace")) {
      a.trace = *v;
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else if (arg == "--capture") {
      a.capture = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (a.workload.empty())
    throw std::invalid_argument("--workload=NAME is required");
  return a;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this program image, from VmHWM. (getrusage's
/// ru_maxrss survives execve on Linux, so it would report the launching
/// process's peak when that was larger.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Registry counters plus histogram (count, sum) pairs at one instant.
struct Totals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, double>> histograms;
};

Totals registry_totals() {
  const ppd::obs::MetricsSnapshot snap = ppd::obs::Registry::global().snapshot();
  Totals t;
  for (const auto& [name, value] : snap.counters) t.counters[name] = value;
  for (const auto& h : snap.histograms) t.histograms[h.name] = {h.count, h.sum};
  return t;
}

/// What the iteration added to the registry, as two JSON members.
std::string registry_delta_json(const Totals& before, const Totals& after) {
  std::string s = "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t delta = value - (it == before.counters.end() ? 0 : it->second);
    if (delta == 0) continue;
    if (!first) s += ',';
    first = false;
    s += json_string(name) + ':' + std::to_string(delta);
  }
  s += "},\"histograms\":{";
  first = true;
  for (const auto& [name, cs] : after.histograms) {
    const auto it = before.histograms.find(name);
    const auto [count0, sum0] =
        it == before.histograms.end() ? std::pair<std::uint64_t, double>{0, 0.0}
                                      : it->second;
    if (cs.first == count0) continue;
    if (!first) s += ',';
    first = false;
    s += json_string(name) + ":{\"count\":" + std::to_string(cs.first - count0) +
         ",\"sum\":" + json_number(cs.second - sum0) + '}';
  }
  return s + '}';
}

std::string run_iteration(Workload& workload, std::size_t index, bool traced,
                          bool warmup) {
  const Totals before = registry_totals();
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  Iteration it;
  {
    const ppd::obs::Span root("bench.iteration");
    it = workload.run();
  }
  const double wall = seconds_since(start);
  const double cpu = process_cpu_seconds() - cpu0;
  const Totals after = registry_totals();
  const auto cache = ppd::cache::SolveCache::global().totals();

  std::string requests = "[";
  for (std::size_t i = 0; i < it.request_s.size(); ++i) {
    if (i != 0) requests += ',';
    requests += json_number(it.request_s[i]);
  }
  requests += ']';
  return "{\"type\":\"iteration\",\"index\":" + std::to_string(index) +
         ",\"traced\":" + (traced ? "true" : "false") +
         ",\"warmup\":" + (warmup ? "true" : "false") +
         ",\"wall_s\":" + json_number(wall) + ",\"cpu_s\":" + json_number(cpu) +
         ",\"attempted\":" + std::to_string(it.attempted) +
         ",\"failed\":" + std::to_string(it.failed) +
         ",\"request_s\":" + requests + "," + registry_delta_json(before, after) +
         ",\"cache\":{\"bytes\":" + std::to_string(cache.bytes) +
         ",\"entries\":" + std::to_string(cache.entries) + "}" +
         ",\"outputs\":" + it.outputs + ",\"detail\":" + it.detail + "}";
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  ppd::obs::TraceSession::global().set_thread_name("perfbench-main");

  if (args.capture) {
    if (args.workload == "served_mix") {
      capture_served_oracle(std::cout);
      return 0;
    }
    for (std::uint64_t v = 0; v < kVariants; ++v) {
      auto workload = make_workload(args.workload, v);
      std::cout << "{\"variant\":" << v << ",\"iteration\":"
                << run_iteration(*workload, 0, false, false) << "}\n";
    }
    return 0;
  }

  const auto setup_start = Clock::now();
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  const auto ready = Clock::now();
  std::cout << "{\"type\":\"setup\",\"workload\":" << json_string(args.workload)
            << ",\"seed\":" << args.seed << ",\"variant\":" << args.seed % kVariants
            << ",\"seconds\":"
            << json_number(std::chrono::duration<double>(ready - setup_start).count())
            << ",\"ready_ns\":"
            << std::chrono::duration_cast<std::chrono::nanoseconds>(
                   ready.time_since_epoch())
                   .count()
            << "}\n"
            << std::flush;

  // The host-speed reference runs after set-up and before and after every
  // iteration, outside the timed regions; each iteration lies between two
  // reference records. Set-up runs on the calling thread alone.
  const auto reference = [](int threads) {
    std::cout << "{\"type\":\"reference\",\"threads\":" << threads
              << ",\"seconds\":" << json_number(reference_seconds(threads))
              << "}\n"
              << std::flush;
  };
  if (args.setup_only) {
    reference(1);
    return 0;
  }
  const int reference_threads = workload->reference_threads();

  // One warm-up iteration first: the first run of a process pays for
  // allocator growth, pool threads and cold instruction caches, which the
  // timed iterations must not see. Its outputs are still checked.
  std::size_t index = 0;
  reference(reference_threads);
  std::cout << run_iteration(*workload, index++, false, true) << '\n';
  reference(reference_threads);
  const auto loop_start = Clock::now();
  do {
    std::cout << run_iteration(*workload, index++, false, false) << '\n';
    reference(reference_threads);
  } while (seconds_since(loop_start) < args.seconds);

  if (!args.trace.empty()) {
    ppd::obs::TraceSession& session = ppd::obs::TraceSession::global();
    session.start();
    const std::string record = run_iteration(*workload, index++, true, false);
    session.stop();
    std::ofstream os(args.trace);
    session.write_chrome_trace(os);
    if (!os) throw std::runtime_error("cannot write trace file " + args.trace);
    std::cout << record << '\n';
    reference(reference_threads);
  }

  std::cout << "{\"type\":\"finish\",\"checks\":" << workload->finish() << "}\n";
  workload.reset();
  std::cout << "{\"type\":\"summary\",\"peak_rss_mb\":" << json_number(peak_rss_mb())
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ppd_perfbench: " << e.what() << '\n';
    return 1;
  }
}
