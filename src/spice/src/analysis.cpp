#include "ppd/spice/analysis.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/obs/log.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/resil/deadline.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/resil/retry.hpp"
#include "ppd/spice/hash.hpp"
#include "ppd/spice/lint.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/table.hpp"

namespace ppd::spice {

namespace {

struct NewtonOutcome {
  bool converged = false;
  int iterations = 0;
  /// Inf-norm of the final iteration's UNCLAMPED node-voltage update [V].
  /// Convergence itself is judged on the clamped update; this field exists
  /// for failure diagnostics, where reporting the clamped value would make
  /// every hard failure print dv_max instead of the true step.
  double residual = 0.0;
};

/// A circuit's MnaSystem with every slot bound and the structure frozen:
/// each device binds its own slots, in device order, then the per-node
/// gmin-to-ground leak binds here; the circuit's devices are also grouped
/// by kind for the typed stamp loops.
///
/// Slot values persist between solves, and MnaSystem sums every cell in
/// bind order whatever order the stamps ran in, so each stamp runs only
/// when its inputs can have changed and leaves the rest in place. An
/// operating-point stage stamps resistors, gmin leaks, capacitors and
/// sources once; a transient stamps resistors and gmin leaks once and
/// capacitors and sources once per attempted step. MOSFET channels, the
/// only stamps that read the iterate, are restamped on every Newton
/// iteration. There is no per-device change tracking: on the paper's
/// circuits every MOSFET moves on every iteration and nearly every
/// capacitor on every step, so a walk that skips unchanged devices would
/// skip almost nothing and cost branches on every stamp.
struct CircuitMna {
  explicit CircuitMna(Circuit& circuit) : mna(circuit.unknown_count()) {
    for (const auto& dev : circuit.devices()) {
      dev->bind(mna);
      dev->enlist(lists);
    }
    leak.resize(circuit.node_count() - 1);
    for (std::size_t i = 0; i < leak.size(); ++i)
      leak[i] = mna.bind(static_cast<MnaIndex>(i), static_cast<MnaIndex>(i));
    mna.freeze();
  }

  /// Resistors and every gmin leak (channel and node-to-ground).
  void stamp_static(double gmin) {
    spice::stamp_static(lists, mna, gmin);
    for (MnaSlot s : leak) mna.set(s, gmin);
  }

  MnaSystem mna;
  std::vector<MnaSlot> leak;
  StampLists lists;
};

/// Histogram of iterations-to-convergence per Newton solve; 1..256 covers
/// everything max_iterations allows, log bins keep the fast common case
/// (2-5 iterations) resolved.
void record_newton(const NewtonOutcome& out) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& solves = obs::counter("spice.newton.solves");
  static obs::Histogram& iterations =
      obs::histogram("spice.newton.iterations", {1.0, 256.0, 24});
  solves.add();
  if (!out.converged) {
    static obs::Counter& nonconverged =
        obs::counter("spice.newton.nonconverged");
    nonconverged.add();
  }
  iterations.record(static_cast<double>(out.iterations));
}

/// Newton-Raphson: iterate solves of the linearized system until the voltage
/// update is below tolerance. `x` carries the initial guess in and the
/// solution out; `x_new` is the caller-owned solve buffer. Only the MOSFET
/// channels read the iterate, so each iteration restamps them alone; the
/// caller stamps everything else for `ctx` before the solve.
NewtonOutcome newton_solve_impl(Circuit& circuit, CircuitMna& sys,
                                StampContext ctx, const NewtonOptions& opt,
                                std::vector<double>& x,
                                std::vector<double>& x_new,
                                const resil::Deadline& deadline) {
  const std::size_t node_unknowns = circuit.node_count() - 1;
  NewtonOutcome out;
  // Chaos seam: poison the first iterate so the non-finite guard below —
  // the real hard-failure path — trips. No-op without an active FaultScope.
  const bool poison_first = resil::inject_newton_nan();

  for (int it = 0; it < opt.max_iterations; ++it) {
    if (deadline.expired())
      throw TimeoutError("Newton solve exceeded its wall-clock budget (" +
                         std::to_string(out.iterations) + " iterations in)");
    ctx.x = &x;
    stamp_iterate(sys.lists, sys.mna, ctx);
    try {
      sys.mna.solve_into(x_new);
    } catch (const NumericalError&) {
      // Singular linearization (e.g. fully cut-off stacks at a flat start):
      // report non-convergence and let the caller's homotopy ladder or step
      // control take over.
      return out;
    }
    ++out.iterations;

    // Clamp node-voltage updates (not branch currents) to aid convergence.
    // The convergence test and the applied update use the clamped step; the
    // reported residual is the unclamped inf-norm, so failure diagnostics
    // show the true update instead of saturating at dv_max.
    bool converged = true;
    double max_dv = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      double dv = x_new[i] - x[i];
      if (i < node_unknowns) {
        max_dv = std::max(max_dv, std::abs(dv));
        dv = std::clamp(dv, -opt.dv_max, opt.dv_max);
        if (std::abs(dv) > opt.abstol + opt.reltol * std::abs(x[i]))
          converged = false;
        x[i] += dv;
      } else {
        x[i] = x_new[i];
      }
    }
    out.residual = max_dv;
    if (poison_first && it == 0 && !x.empty())
      x[0] = std::numeric_limits<double>::quiet_NaN();
    if (!std::isfinite(linalg::norm_inf(x)))
      throw NumericalError("Newton iterate diverged to non-finite values");
    // A below-tolerance update means x is a fixed point of the Newton map:
    // the system linearized *at x* solves back to x, so the residual is
    // already small and no confirmation iteration is needed.
    if (converged) {
      out.converged = true;
      return out;
    }
  }
  return out;
}

NewtonOutcome newton_solve(Circuit& circuit, CircuitMna& sys, StampContext ctx,
                           const NewtonOptions& opt, std::vector<double>& x,
                           std::vector<double>& x_new,
                           const resil::Deadline& deadline) {
  // Chaos seam: report non-convergence without solving, exercising the
  // callers' recovery ladders. No-op without an active FaultScope.
  if (resil::inject_newton_nonconvergence()) {
    const NewtonOutcome out;
    record_newton(out);
    return out;
  }
  const NewtonOutcome out =
      newton_solve_impl(circuit, sys, ctx, opt, x, x_new, deadline);
  record_newton(out);
  return out;
}

/// Run a homotopy schedule: solve each context in order, each stage starting
/// from the previous stage's solution; every stage must converge. The gmin
/// and source rungs of run_op are both instances of this (they used to be
/// two near-identical loops). `last` receives the final stage's outcome.
bool schedule_solve(Circuit& circuit, CircuitMna& sys,
                    const std::vector<StampContext>& schedule,
                    const NewtonOptions& opt, std::vector<double>& x,
                    std::vector<double>& x_new,
                    const resil::Deadline& deadline, NewtonOutcome* last) {
  NewtonOutcome out;
  for (const StampContext& ctx : schedule) {
    // Gmin, source scale and time are fixed for the whole solve.
    sys.stamp_static(ctx.gmin);
    stamp_time_point(sys.lists, sys.mna, ctx);
    out = newton_solve(circuit, sys, ctx, opt, x, x_new, deadline);
    if (last != nullptr) *last = out;
    if (!out.converged) return false;
  }
  return true;
}

/// Content key for the operating-point solution: the OP view of the circuit
/// (sources at t = 0) plus every option that shapes which fixed point the
/// ladder lands on. budget_seconds stays out — timeouts throw and are never
/// cached, and a successful solve's value does not depend on its budget.
std::uint64_t op_cache_key(const Circuit& circuit, const OpOptions& options) {
  cache::Hasher h;
  h.str("spice.op");
  hash_circuit_op(h, circuit);
  h.i64(options.newton.max_iterations);
  h.f64(options.newton.abstol);
  h.f64(options.newton.reltol);
  h.f64(options.newton.dv_max);
  h.f64(options.newton.gmin);
  h.boolean(options.allow_gmin_stepping);
  h.boolean(options.allow_source_stepping);
  h.u64(options.nodesets.size());
  for (const auto& [node, volts] : options.nodesets) {
    h.i64(node);
    h.f64(volts);
  }
  return h.value();
}

/// Warm-start verification: is the stored iterate `x` still a Newton fixed
/// point of this circuit? One assemble + one linear solve, checking the
/// would-be update against tolerance WITHOUT applying it — so on success the
/// caller can return `x` verbatim and stay bit-identical to the cold run
/// that stored it. Returns false on a stale entry or hash collision (the
/// caller then falls through to the cold ladder).
bool op_verified_at(Circuit& circuit, CircuitMna& sys, StampContext ctx,
                    const NewtonOptions& opt, const std::vector<double>& x) {
  const std::size_t node_unknowns = circuit.node_count() - 1;
  ctx.x = &x;
  sys.stamp_static(ctx.gmin);
  stamp_time_point(sys.lists, sys.mna, ctx);
  stamp_iterate(sys.lists, sys.mna, ctx);
  std::vector<double> x_new;
  try {
    sys.mna.solve_into(x_new);
  } catch (const NumericalError&) {
    return false;
  }
  if (!std::isfinite(linalg::norm_inf(x_new))) return false;
  for (std::size_t i = 0; i < node_unknowns; ++i) {
    const double dv = std::clamp(x_new[i] - x[i], -opt.dv_max, opt.dv_max);
    if (std::abs(dv) > opt.abstol + opt.reltol * std::abs(x[i])) return false;
  }
  return true;
}

/// Homotopy-ladder shape for operating-point recovery: the gmin rung relaxes
/// a heavy leak geometrically down to NewtonOptions::gmin, the source rung
/// ramps every source in k / kSourceSteps stages.
constexpr double kGminStart = 1e-3;   // first (heaviest) leak [S]
constexpr double kGminFactor = 0.1;   // relaxation per stage
constexpr int kSourceSteps = 20;

/// run_op with the wall-clock deadline supplied by the caller, so
/// run_transient can thread ONE shared deadline through both phases instead
/// of granting the operating point a second full budget.
OpResult run_op_with_deadline(Circuit& circuit, const OpOptions& options,
                              const resil::Deadline& deadline) {
  const obs::Span span("spice.run_op");
  const auto op_start = std::chrono::steady_clock::now();
  obs::counter("spice.op.solves").add();
  // Reject structurally broken circuits (ground islands, vsource loops,
  // device-free nodes) with actionable diagnostics instead of letting the
  // factorization die on a singular matrix mid-sweep.
  validate_circuit(circuit);
  circuit.finalize();
  const std::size_t n = circuit.unknown_count();
  PPD_REQUIRE(n > 0, "circuit has no unknowns");
  CircuitMna sys(circuit);

  // Starting point: flat zero plus any .NODESET biases.
  std::vector<double> x0(n, 0.0);
  for (const auto& [node, volts] : options.nodesets) {
    PPD_REQUIRE(node > 0 && static_cast<std::size_t>(node) < circuit.node_count(),
                "nodeset node out of range (ground cannot be set)");
    x0[static_cast<std::size_t>(node - 1)] = volts;
  }

  OpResult result;
  result.x = x0;

  StampContext ctx;
  ctx.mode = AnalysisMode::kOperatingPoint;
  ctx.gmin = options.newton.gmin;

  const auto record_solve_time = [&] {
    if (!obs::metrics_enabled()) return;
    obs::histogram("spice.op.seconds", {1e-7, 1e3, 50})
        .record(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              op_start)
                    .count());
  };

  // Warm-start rung (rung 0 of the ladder, before plain Newton): a prior
  // converged OP for this exact system may be cached. Verify it is still a
  // fixed point and return it verbatim — see op_verified_at. Bypassed under
  // fault injection so chaos plans keep hitting the seams they target.
  // Value layout: [iterations, used_gmin, used_source, x...].
  const bool use_cache =
      cache::cache_enabled() && !resil::fault_injection_active();
  const std::uint64_t key = use_cache ? op_cache_key(circuit, options) : 0;
  if (use_cache) {
    if (const auto cached = cache::solve_cache().get(key);
        cached.has_value() && cached->size() == n + 3) {
      const std::vector<double> stored(cached->begin() + 3, cached->end());
      if (op_verified_at(circuit, sys, ctx, options.newton, stored)) {
        const int cold_iterations = static_cast<int>((*cached)[0]);
        obs::counter("spice.newton.warm_start.hit").add();
        obs::counter("spice.newton.warm_start.iters_saved")
            .add(static_cast<std::uint64_t>(
                std::max(0, cold_iterations - 1)));
        result.x = stored;
        result.iterations = cold_iterations;
        result.used_gmin_stepping = (*cached)[1] != 0.0;
        result.used_source_stepping = (*cached)[2] != 0.0;
        record_solve_time();
        return result;
      }
      obs::counter("spice.newton.warm_start.stale").add();
    }
  }

  // The homotopy ladder: plain Newton, then gmin stepping (a heavy leak
  // relaxed geometrically), then source stepping (sources ramped from zero).
  // Each rung is a schedule of contexts handed to schedule_solve; the
  // generic ladder walker owns ordering, per-rung obs counters and the
  // wall-clock budget.
  resil::RetryPolicy policy;
  policy.counter_prefix = "spice.op";
  policy.rungs.push_back({"newton", 1});
  if (options.allow_gmin_stepping) policy.rungs.push_back({"gmin-step", 1});
  if (options.allow_source_stepping) policy.rungs.push_back({"source-step", 1});

  std::vector<double> x, x_new;
  NewtonOutcome last;
  const auto try_rung = [&](const resil::RetryRung& rung, int) {
    x = x0;  // every rung restarts from the (possibly biased) flat start
    std::vector<StampContext> schedule;
    if (rung.name == "newton") {
      schedule.push_back(ctx);
    } else if (rung.name == "gmin-step") {
      obs::counter("spice.op.gmin_fallbacks").add();
      for (double gmin = kGminStart; gmin >= options.newton.gmin;
           gmin *= kGminFactor) {
        StampContext step_ctx = ctx;
        step_ctx.gmin = gmin;
        schedule.push_back(step_ctx);
      }
      schedule.push_back(ctx);  // confirm at the true gmin
    } else {  // source-step
      obs::counter("spice.op.source_fallbacks").add();
      for (int k = 1; k <= kSourceSteps; ++k) {
        StampContext step_ctx = ctx;
        step_ctx.source_scale = static_cast<double>(k) / kSourceSteps;
        schedule.push_back(step_ctx);
      }
    }
    return schedule_solve(circuit, sys, schedule, options.newton, x, x_new,
                          deadline, &last);
  };

  const resil::LadderOutcome outcome =
      resil::run_ladder(policy, try_rung, deadline,
                        "operating point" + (circuit.source().empty()
                                                 ? std::string()
                                                 : " of " + circuit.source()));
  if (outcome.success) {
    const std::string& rung = policy.rungs[static_cast<std::size_t>(outcome.rung)].name;
    result.x = std::move(x);
    result.iterations = last.iterations;
    result.used_gmin_stepping = rung == "gmin-step";
    result.used_source_stepping = rung == "source-step";
    if (use_cache) {
      std::vector<double> value;
      value.reserve(result.x.size() + 3);
      value.push_back(static_cast<double>(result.iterations));
      value.push_back(result.used_gmin_stepping ? 1.0 : 0.0);
      value.push_back(result.used_source_stepping ? 1.0 : 0.0);
      value.insert(value.end(), result.x.begin(), result.x.end());
      cache::solve_cache().put(key, std::move(value));
    }
    record_solve_time();
    return result;
  }

  obs::counter("spice.op.failures").add();
  {
    // Rate-limited: a badly conditioned MC sweep can fail thousands of times.
    static obs::RateLimit rate(5);
    if (rate.allow())
      obs::log_warn("spice", "operating point did not converge",
                    {{"unknowns", std::to_string(n)},
                     {"source", circuit.source().empty() ? "-" : circuit.source()},
                     {"rungs", outcome.attempted}});
  }
  std::string msg = "operating point did not converge";
  if (!circuit.source().empty()) msg += " for " + circuit.source();
  msg += " [rungs attempted: " + outcome.attempted + " (" +
         std::to_string(outcome.total_attempts) + " solves); final update " +
         util::format_double(last.residual, 3) + " V over " +
         std::to_string(n) + " unknowns]";
  throw NumericalError(msg);
}

/// Transient state machine: one step() call is one attempted time step
/// (accepted, rejected, or nothing left to do). Owns the step size, the
/// iteration-count step controller, the end-of-sweep
/// snapping and the iterate and solve buffers. run_transient owns the
/// circuit, the bound MnaSystem, the OP phase and waveform recording.
class TransientStepper {
 public:
  enum class Outcome { kAccepted, kRejected, kFinished };

  /// `x_op` is the operating point.
  TransientStepper(Circuit& circuit, CircuitMna& sys,
                   const TransientOptions& options, resil::Deadline deadline,
                   const std::vector<double>& x_op);

  /// Attempt one step. Throws TimeoutError on deadline expiry and
  /// NumericalError when Newton fails at the minimum step or diverges.
  Outcome step();

  /// Accumulated time, snapped to exactly t_stop at the end of the sweep.
  [[nodiscard]] double time() const { return t_; }
  [[nodiscard]] const std::vector<double>& x() const { return x_; }
  [[nodiscard]] int last_iterations() const { return last_iterations_; }
  /// True when the sweep ended by snapping a sub-dt_min sliver to t_stop
  /// without integrating it (run_transient records one more point).
  [[nodiscard]] bool snapped_without_step() const { return snapped_; }

 private:
  Circuit& circuit_;
  CircuitMna& sys_;
  const TransientOptions& options_;
  resil::Deadline deadline_;
  double t_stop_;
  double t_end_;  // relative end-of-sweep guard
  double t_ = 0.0;
  double h_;
  bool just_rejected_ = false;
  bool snapped_ = false;
  int last_iterations_ = 0;
  std::vector<double> x_, x_try_, x_new_;
};

TransientStepper::TransientStepper(Circuit& circuit, CircuitMna& sys,
                                   const TransientOptions& options,
                                   resil::Deadline deadline,
                                   const std::vector<double>& x_op)
    : circuit_(circuit),
      sys_(sys),
      options_(options),
      deadline_(deadline),
      t_stop_(options.t_stop),
      // Relative end-of-sweep guard: accumulated t += h carries rounding at
      // the scale of t_stop, so the old absolute 1e-21 epsilon was
      // meaningless against nanosecond sweeps.
      t_end_(options.t_stop * (1.0 - 1e-12)),
      h_(options.dt),
      x_(x_op) {
  // Static stamps hold for the whole transient.
  sys_.stamp_static(options.newton.gmin);
}

TransientStepper::Outcome TransientStepper::step() {
  if (t_ >= t_end_) return Outcome::kFinished;
  if (deadline_.expired())
    throw TimeoutError("transient exceeded its wall-clock budget at t = " +
                       util::format_double(t_) + " of " +
                       util::format_double(t_stop_) + " s" +
                       (circuit_.source().empty()
                            ? ""
                            : " [" + circuit_.source() + "]"));

  const double rem = t_stop_ - t_;
  if (rem < options_.dt_min) {
    // A rejection ladder left a sub-dt_min sliver: a C/h companion at such h
    // is ill-conditioned and the rejection path could not shrink further.
    // Snap the trace to t_stop instead of integrating the sliver.
    t_ = t_stop_;
    snapped_ = true;
    return Outcome::kFinished;
  }
  h_ = std::min(h_, rem);
  // Absorb a would-be final sliver into this step (growing h by < dt_min) so
  // the sweep lands exactly on t_stop — but never right after a rejection,
  // where re-growing h would retry the step size that just failed.
  if (!just_rejected_ && rem - h_ < options_.dt_min) h_ = rem;

  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.integrator = options_.integrator;
  ctx.t = t_ + h_;
  ctx.h = h_;
  ctx.gmin = options_.newton.gmin;

  x_try_ = x_;  // previous point as predictor
  // The time-point stamps hold for every iteration of this step; the
  // Newton loop restamps only the MOSFET channels.
  stamp_time_point(sys_.lists, sys_.mna, ctx);
  const NewtonOutcome outcome =
      newton_solve(circuit_, sys_, ctx, options_.newton, x_try_, x_new_,
                   deadline_);
  last_iterations_ = outcome.iterations;

  if (!outcome.converged) {
    if (!options_.adaptive || h_ <= options_.dt_min * 1.0001)
      throw NumericalError("transient Newton failed at t = " +
                           util::format_double(ctx.t));
    just_rejected_ = true;
    h_ = std::max(h_ * 0.25, options_.dt_min);
    return Outcome::kRejected;
  }

  // Accept the step.
  std::swap(x_, x_try_);
  commit_step(sys_.lists, ctx, x_);
  t_ += h_;
  if (t_ >= t_end_) t_ = t_stop_;  // record the final point at exactly t_stop
  just_rejected_ = false;

  if (options_.adaptive) {
    // NR iteration counts steering the step (SPICE's iteration-count
    // time-step control): grow when Newton converges quickly, shrink on
    // slow convergence.
    constexpr int kFastIterations = 3;
    constexpr int kSlowIterations = 8;
    if (outcome.iterations <= kFastIterations)
      h_ = std::min(h_ * 1.5, options_.dt_max);
    else if (outcome.iterations >= kSlowIterations)
      h_ = std::max(h_ * 0.5, options_.dt_min);
  }
  return Outcome::kAccepted;
}

}  // namespace

double OpResult::voltage(NodeId n) const {
  if (n == kGround) return 0.0;
  const auto i = static_cast<std::size_t>(n - 1);
  PPD_REQUIRE(i < x.size(), "node id out of range");
  return x[i];
}

OpResult run_op(Circuit& circuit, const OpOptions& options) {
  return run_op_with_deadline(
      circuit, options, resil::Deadline::after(options.budget_seconds));
}

const wave::Waveform& TransientResult::wave(NodeId n) const {
  PPD_REQUIRE(n > 0 && static_cast<std::size_t>(n) < node_waves.size(),
              "node id out of range (ground has no waveform)");
  PPD_REQUIRE(probed[static_cast<std::size_t>(n)],
              "node was not in the transient probe set: " +
                  node_names[static_cast<std::size_t>(n)]);
  return node_waves[static_cast<std::size_t>(n)];
}

const wave::Waveform& TransientResult::wave(const std::string& node_name) const {
  for (std::size_t i = 1; i < node_names.size(); ++i)
    if (node_names[i] == node_name) return wave(static_cast<NodeId>(i));
  throw PreconditionError("unknown node: " + node_name);
}

TransientResult run_transient(
    Circuit& circuit, const TransientOptions& options,
    const std::function<bool(const TransientResult&)>& decided) {
  PPD_REQUIRE(options.t_stop > 0.0, "t_stop must be positive");
  PPD_REQUIRE(options.dt > 0.0, "dt must be positive");
  const obs::Span span("spice.run_transient");
  const auto tran_start = std::chrono::steady_clock::now();

  // ONE deadline governs the whole analysis: the operating point spends
  // from the same transient budget it precedes (previously both phases
  // created a full-length deadline each, so a "budgeted" transient could
  // run for twice its budget). An explicit op.budget_seconds still tightens
  // the OP phase further when set.
  const resil::Deadline deadline = resil::Deadline::after(options.budget_seconds);
  const OpResult op = run_op_with_deadline(
      circuit, options.op,
      resil::Deadline::earliest(
          deadline, resil::Deadline::after(options.op.budget_seconds)));
  circuit.finalize();
  CircuitMna sys(circuit);
  begin_transient(sys.lists, op.x);

  TransientResult result;
  result.node_names.resize(circuit.node_count());
  result.node_waves.resize(circuit.node_count());
  for (std::size_t i = 0; i < circuit.node_count(); ++i)
    result.node_names[i] = circuit.node_name(static_cast<NodeId>(i));
  result.probed.assign(circuit.node_count(), options.probe.empty());
  result.probed[0] = false;
  for (NodeId p : options.probe) {
    PPD_REQUIRE(p > 0 && static_cast<std::size_t>(p) < circuit.node_count(),
                "probe node out of range");
    result.probed[static_cast<std::size_t>(p)] = true;
  }
  std::vector<std::size_t> probe_list;
  for (std::size_t i = 1; i < circuit.node_count(); ++i)
    if (result.probed[i]) probe_list.push_back(i);

  auto record = [&](double t, const std::vector<double>& x) {
    for (std::size_t i : probe_list) result.node_waves[i].append(t, x[i - 1]);
  };
  // Record the operating point at t = 0.
  record(0.0, op.x);

  TransientStepper stepper(circuit, sys, options, deadline, op.x);
  bool stopped = false;
  while (!stopped) {
    const auto outcome = stepper.step();
    if (outcome == TransientStepper::Outcome::kFinished) break;
    result.newton_iterations +=
        static_cast<std::size_t>(stepper.last_iterations());
    if (outcome == TransientStepper::Outcome::kAccepted) {
      record(stepper.time(), stepper.x());
      ++result.steps;
      stopped = decided && decided(result);
    } else {
      ++result.rejected_steps;
    }
  }
  // Sub-dt_min sliver snapped away: hold the last solution to exactly t_stop
  // so the waveform still ends on the nose.
  if (stepper.snapped_without_step()) record(stepper.time(), stepper.x());
  if (obs::metrics_enabled()) {
    obs::counter("spice.transient.runs").add();
    obs::counter("spice.transient.steps").add(result.steps);
    if (stopped) obs::counter("spice.transient.decided").add();
    obs::counter("spice.transient.rejected_steps").add(result.rejected_steps);
    const auto& lu = sys.mna.lu_stats();
    obs::counter("spice.lu.pattern_factors").add(lu.pattern);
    obs::counter("spice.lu.full_factors").add(lu.full);
    obs::histogram("spice.transient.seconds", {1e-6, 1e4, 50})
        .record(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              tran_start)
                    .count());
  }
  return result;
}

}  // namespace ppd::spice
