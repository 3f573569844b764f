// The benchmark's three workloads behind one interface. A workload is set up
// once from the seed, then run any number of times; every run ("iteration")
// does the same work from a cold solve cache and returns what the output
// oracle compares.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Distinct input variants per workload: --seed selects seed % kVariants
/// (the Monte-Carlo seed of the sweeps). The oracle holds every variant.
inline constexpr std::uint64_t kVariants = 16;

/// One timed repetition of a workload.
struct Iteration {
  std::uint64_t attempted = 0;    ///< operations tried (MC items, queries)
  std::uint64_t failed = 0;       ///< quarantined items, failed/BUSY queries
  std::vector<double> request_s;  ///< latency of each served query
  std::string outputs;            ///< JSON object the oracle compares
  std::string detail = "{}";      ///< JSON object of per-request records
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One repetition on the calling thread; identical work every call.
  [[nodiscard]] virtual Iteration run() = 0;
  /// Untimed checks and facts after the timed loop, as a JSON object.
  [[nodiscard]] virtual std::string finish() { return "{}"; }
  /// Threads of the host-speed reference (reference.hpp) that match where
  /// the iteration's time goes: the calling thread's core when it carries
  /// the wall, every core when the work is spread over all of them.
  [[nodiscard]] virtual int reference_threads() const { return 1; }
};

/// Set up workload `name` for `seed`. Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// Oracle capture for served_mix: one JSON line per query of the fixed
/// query universe, with the digest of its direct net::run_query body.
void capture_served_oracle(std::ostream& os);

// JSON and digest helpers shared with main.cpp.
[[nodiscard]] std::string json_string(const std::string& s);
/// Round-trip (%.17g) form; non-finite values become null.
[[nodiscard]] std::string json_number(double v);
/// 64-bit FNV-1a of `s`, as 16 hex digits.
[[nodiscard]] std::string fnv1a_hex(const std::string& s);

}  // namespace perfbench
