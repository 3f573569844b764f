// guarded_map runs one parallel sweep under a SweepPolicy. It is the one
// place that knows the sweep-item protocol, so the sweeps built on it
// (coverage, R_min, fault simulation) carry only their item body:
// policy-driven quarantine (exec's on_item_error hook), the sweep's
// wall-clock watchdog, periodic checkpointing and resume, the deterministic
// fault-injection seams of each item and the cancel-after-items count.
//
// Call pattern (see core/src/coverage.cpp):
//
//   const resil::SweepOutcome out = resil::guarded_map(
//       options.resil, {items, seed, "what the sweep is", "metrics.domain"},
//       par, [&](std::size_t i) { return encode(<expensive work>); });
//   for (std::size_t i = 0; i < items; ++i)
//     if (!out.quarantine.contains(i)) use(decode(out.payloads[i]));
//
// An item body returns its checkpoint payload, which must be the item's
// full result: resumed and freshly computed items then reach the caller
// through the same decode, and a resumed sweep is bit-identical to an
// uninterrupted one. The per-item solve budget is the caller's to forward
// (SweepPolicy::solve_budget_seconds into its simulator settings).
//
// Determinism: with quarantine on and no wall-clock budget expiring, the
// quarantine report and the payloads are bit-identical at any thread
// count, because item failure is a pure function of the item index (the
// per-item RNG contract plus FaultPlan's hashed draws).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ppd/exec/parallel.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/resil/quarantine.hpp"

namespace ppd::resil {

/// Per-sweep resilience policy, embedded in CoverageOptions / RminOptions /
/// FaultSimOptions. The all-defaults policy is a no-op: fail-fast, no
/// budgets, no checkpointing, no injection — exactly the pre-resil
/// behaviour ("strict mode").
struct SweepPolicy {
  /// Record failing items into a QuarantineReport and keep sweeping
  /// (false = fail fast, today's behaviour).
  bool quarantine = false;
  /// Wall budget for each item's electrical solves, forwarded into the
  /// simulator (0 = unlimited). Expiry throws TimeoutError in the item,
  /// which quarantines like any other failure.
  double solve_budget_seconds = 0.0;
  /// Wall budget for the whole sweep (0 = unlimited). Expiry cancels the
  /// sweep; guarded_map converts the cancellation into TimeoutError after
  /// saving a checkpoint.
  double sweep_budget_seconds = 0.0;
  /// Checkpoint file ("" = no checkpointing); written at most every 5 s
  /// while items complete, and on cancellation/finish.
  std::string checkpoint_path;
  /// Load checkpoint_path before sweeping and skip its completed items.
  bool resume = false;
  /// Deterministic fault injection (off by default).
  FaultPlan faults;

  [[nodiscard]] bool active() const {
    return quarantine || solve_budget_seconds > 0.0 ||
           sweep_budget_seconds > 0.0 || !checkpoint_path.empty() ||
           faults.enabled();
  }
};

/// What a sweep is. (items, seed, context) is the checkpoint identity: a
/// checkpoint resumes only the sweep that wrote it.
struct Sweep {
  std::size_t items = 0;
  /// The sweep's RNG seed (0 when it draws no random numbers).
  std::uint64_t seed = 0;
  /// What the sweep is doing; also the error context of its items
  /// (exec::ParallelOptions::context).
  std::string context;
  /// Metrics prefix of the finished sweep's stats (exec::record_sweep).
  std::string domain;
  /// Item index -> the RNG derivation index recorded in quarantine entries
  /// (the item index itself when null).
  std::function<std::uint64_t(std::size_t)> item_seed = nullptr;
};

struct SweepOutcome {
  /// payloads[i]: item i's payload, fresh or resumed ("" when quarantined).
  std::vector<std::string> payloads;
  /// The failed items, sorted by index (empty unless policy.quarantine).
  QuarantineReport quarantine;
};

/// Run `item` over [0, sweep.items) on `par`'s lanes under `policy` and
/// record the sweep's stats under sweep.domain. A cancellation saves the
/// checkpoint and rethrows: as TimeoutError when the sweep budget fired,
/// as the exec::CancelledError otherwise. An item failure outside
/// quarantine escapes as with exec::parallel_for.
[[nodiscard]] SweepOutcome guarded_map(
    const SweepPolicy& policy, const Sweep& sweep, exec::ParallelOptions par,
    const std::function<std::string(std::size_t)>& item);

}  // namespace ppd::resil
