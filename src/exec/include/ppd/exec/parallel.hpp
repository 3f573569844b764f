// Deterministic data-parallel primitives over an index space [0, n).
//
// Contract: parallel_for(n, body) calls body(i) exactly once for every i,
// with no ordering guarantee between distinct i. Callers that (a) make each
// item depend only on its index — e.g. derive the item's RNG via
// mc::derive_rng(seed, i) — and (b) write only to the item's own output
// slot, get results bit-identical to the serial loop at ANY thread count,
// including 1 and 0 (= hardware concurrency). Every Monte-Carlo sweep in
// ppd::core and fault-list evaluation in ppd::logic is written this way.
//
// Scheduling is dynamic (an atomic cursor claims `grain` indices at a time)
// on the shared work-stealing pool; the calling thread always runs one of
// the lanes itself, so a sweep makes progress even when the pool is
// saturated by other sweeps. The first exception thrown by a body is
// captured, remaining items are abandoned, and the exception is rethrown on
// the calling thread — with the failing item index (and the sweep's
// `context` string, when set) appended to the message of the ppd exception
// types, so a lint-style diagnostic thrown deep inside item 37 of a
// Monte-Carlo sweep still names the item and netlist/file it came from.
// Unknown exception types are rethrown unchanged. A fired CancelToken stops
// lanes claiming work and surfaces as CancelledError.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ppd/exec/cancel.hpp"
#include "ppd/exec/thread_pool.hpp"

namespace ppd::exec {

struct ParallelOptions {
  /// Parallel lanes: 0 = hardware concurrency, 1 = serial on the calling
  /// thread (no pool involvement), N = at most N lanes.
  int threads = 1;
  /// Indices claimed per cursor fetch. Raise above 1 only when items are so
  /// cheap that the atomic claim dominates (the electrical sweeps are
  /// milliseconds per item — leave it at 1 for those).
  std::size_t grain = 1;
  CancelToken cancel;
  /// What this sweep is doing, for error messages — e.g. the netlist/file
  /// being swept ("faultsim over data/c432_class.bench"). Appended, with
  /// the failing item index, to exceptions escaping a body.
  std::string context;
  /// Item-failure hook, called with (item index, the exception) when a body
  /// throws anything but CancelledError. Return true to quarantine the item
  /// — the sweep continues as if it had succeeded — or false to fail fast
  /// (the default when unset). Called from worker threads, so it must be
  /// thread-safe; ppd::resil::guarded_map installs it from a SweepPolicy.
  std::function<bool(std::size_t, const std::exception_ptr&)> on_item_error;
};

/// Per-sweep timing/counters, filled when a non-null pointer is passed.
struct SweepStats {
  std::uint64_t items = 0;
  int lanes = 0;             ///< parallel lanes actually used
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;  ///< summed per-lane body time (>= wall when scaling)
};

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options = {},
                  SweepStats* stats = nullptr);

/// Fold a finished sweep's stats into the ppd::obs metrics registry under
/// `domain` (counters `<domain>.sweeps`/`<domain>.items`, histograms
/// `<domain>.items_per_second`, `<domain>.occupancy` and
/// `<domain>.wall_seconds`). parallel_for records the same series under
/// "exec.sweep" for every sweep; call sites use this to file their stats
/// under a workload-specific prefix instead of discarding them.
void record_sweep(const std::string& domain, const SweepStats& stats);

/// Map [0, n) through `fn` into a pre-sized vector, one slot per index.
/// The result type must be default-constructible.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, const ParallelOptions& options = {},
                  SweepStats* stats = nullptr) {
  using T = std::decay_t<decltype(fn(std::size_t{0}))>;
  static_assert(std::is_default_constructible_v<T>,
                "parallel_map results are written into a pre-sized vector");
  std::vector<T> out(n);
  parallel_for(
      n, [&out, &fn](std::size_t i) { out[i] = fn(i); }, options, stats);
  return out;
}

}  // namespace ppd::exec
