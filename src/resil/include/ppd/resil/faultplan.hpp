// Deterministic fault injection for testing the recovery machinery itself.
//
// A FaultPlan is a seeded recipe of failure probabilities; it is OFF by
// default and only consulted between a FaultScope's construction and
// destruction, so production runs pay one thread-local null check per seam.
// Every injection decision is a pure hash of (plan seed, sweep item, seam,
// per-item draw counter) — no global state, no wall clock — so the set of
// injected failures is bit-identical at any thread count and across
// re-runs, which is what lets the quarantine/checkpoint tests assert exact
// results under chaos.
//
// Seams currently instrumented:
//   * newton  — spice::run_op/run_transient Newton solves report
//               non-convergence (exercises the homotopy ladder);
//   * nan     — a Newton iterate is poisoned to NaN, tripping the solver's
//               real non-finite guard (exercises the hard-failure path);
//   * item    — a sweep item throws NumericalError outright (exercises
//               quarantine without the electrical layer, e.g. in logic);
//   * delay   — a sweep item sleeps, exercising deadlines and watchdogs;
//   * cancel-after — the sweep's CancelToken fires after N completed items,
//               exercising checkpoint/resume (counted by guarded_map);
//   * sock-*  — socket chaos for the ppdd service: the fault-injecting
//               loopback proxy (ppd::net::ChaosProxy) draws partial writes,
//               mid-frame resets, slow-loris stalls and delayed forwards
//               from the same seeded hash, so a failing chaos seed replays
//               exactly. These seams are consumed by the proxy directly via
//               fault_uniform(), not through a FaultScope.
#pragma once

#include <cstdint>
#include <string>

namespace ppd::resil {

struct FaultPlan {
  std::uint64_t seed = 0;
  double p_newton_nonconverge = 0.0;  ///< "newton="
  double p_newton_nan = 0.0;          ///< "nan="
  double p_item_fail = 0.0;           ///< "item="
  double p_item_delay = 0.0;          ///< "delay=p:seconds"
  double delay_seconds = 0.0;
  /// Fire the sweep's CancelToken after this many completed items
  /// (0 = never). Used to test checkpoint/resume.
  std::size_t cancel_after_items = 0;

  // Socket chaos (consumed by ppd::net::ChaosProxy per forwarded chunk).
  double p_sock_partial = 0.0;  ///< "sock-partial=" — dribble 1..8B writes
  double p_sock_reset = 0.0;    ///< "sock-reset="   — RST mid-frame
  double p_sock_stall = 0.0;    ///< "sock-stall=p:seconds" — slow-loris
  double sock_stall_seconds = 0.0;
  double p_sock_delay = 0.0;    ///< "sock-delay=p:seconds" — delayed forward
  double sock_delay_seconds = 0.0;

  [[nodiscard]] bool enabled() const {
    return p_newton_nonconverge > 0.0 || p_newton_nan > 0.0 ||
           p_item_fail > 0.0 || p_item_delay > 0.0 || cancel_after_items > 0;
  }

  /// True when any socket seam is armed (the chaos proxy's gate; socket
  /// seams deliberately do not arm FaultScope / enabled()).
  [[nodiscard]] bool socket_enabled() const {
    return p_sock_partial > 0.0 || p_sock_reset > 0.0 || p_sock_stall > 0.0 ||
           p_sock_delay > 0.0;
  }

  /// Parse "seed=7,newton=0.3,nan=0.05,item=0.2,delay=0.1:0.01,
  /// cancel-after=30,sock-partial=0.3,sock-reset=0.02,sock-stall=0.1:0.02,
  /// sock-delay=0.2:0.005" (any subset, any order). Throws ParseError.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Plan from the PPD_FAULT_PLAN environment variable (empty/unset =
  /// disabled plan).
  [[nodiscard]] static FaultPlan from_env();

  /// Round-trippable single-line description ("off" when disabled).
  [[nodiscard]] std::string describe() const;
};

/// Injection seams, hashed into every decision so the same probability
/// draws independently per seam.
enum class FaultSite : std::uint64_t {
  kNewtonNonConverge = 1,
  kNewtonNan = 2,
  kItemFail = 3,
  kItemDelay = 4,
  kSockPartial = 5,
  kSockReset = 6,
  kSockStall = 7,
  kSockDelay = 8,
};

/// The deterministic draw behind every injection decision, exported for
/// consumers that inject outside a sweep item (the socket chaos proxy):
/// hash (seed, item, site, draw counter) into a uniform in [0, 1). Pure —
/// the k-th draw for a given key is identical at any thread count.
[[nodiscard]] double fault_uniform(std::uint64_t seed, std::uint64_t item,
                                   std::uint64_t site, std::uint64_t draw);

namespace detail {
struct FaultContext;
}  // namespace detail

/// Installs `plan` as the active injection context of the current thread
/// for the duration of one sweep item. Scopes nest (the inner scope wins);
/// a disabled plan installs nothing.
class FaultScope {
 public:
  FaultScope(const FaultPlan& plan, std::uint64_t item);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  detail::FaultContext* previous_ = nullptr;
  bool installed_ = false;
};

/// True while a FaultScope is installed on this thread. The solve-reuse
/// cache consults this to bypass itself under chaos: a cached result would
/// mask the very failures the plan is trying to inject.
[[nodiscard]] bool fault_injection_active();

/// Seam helpers, called at the instrumented sites. All return false / no-op
/// when no FaultScope is active on this thread.
[[nodiscard]] bool inject_newton_nonconvergence();
[[nodiscard]] bool inject_newton_nan();
/// Throws NumericalError("injected item failure ...") when drawn.
void inject_item_failure();
/// Sleeps plan.delay_seconds when drawn.
void inject_item_delay();

}  // namespace ppd::resil
