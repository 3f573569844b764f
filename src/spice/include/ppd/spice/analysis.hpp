// Operating-point and transient analyses over a Circuit.
//
// OP: Newton-Raphson from a flat start, with gmin stepping and source
// stepping as successive fallbacks (the standard SPICE homotopy ladder).
// Transient: fixed-step or iteration-count-adaptive stepping with
// trapezoidal (default) or backward-Euler companions.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ppd/spice/circuit.hpp"
#include "ppd/wave/waveform.hpp"

namespace ppd::spice {

struct NewtonOptions {
  int max_iterations = 100;
  double abstol = 1e-6;    ///< absolute voltage tolerance [V]
  double reltol = 1e-4;
  double dv_max = 1.0;     ///< per-iteration voltage-step clamp [V]
  /// Leak conductance added on every node and across every channel [S].
  /// 1 nS keeps cut-off series stacks well-conditioned at a flat OP start
  /// while perturbing digital levels by < 1 uV.
  double gmin = 1e-9;
};

struct OpOptions {
  NewtonOptions newton;
  bool allow_gmin_stepping = true;
  bool allow_source_stepping = true;
  /// Wall-clock budget for the whole homotopy ladder [s]; <= 0 = unlimited.
  /// Expiry throws ppd::TimeoutError (see ppd::resil::Deadline).
  double budget_seconds = 0.0;
  /// SPICE .NODESET equivalent: initial node-voltage guesses that bias
  /// Newton toward a chosen solution of a multi-stable circuit (latches,
  /// ring oscillators). Applied to every homotopy rung's starting point.
  std::vector<std::pair<NodeId, double>> nodesets;
};

/// Result of an operating-point analysis.
struct OpResult {
  std::vector<double> x;        ///< MNA unknowns (node voltages then branch currents)
  int iterations = 0;           ///< NR iterations of the final (un-stepped) solve
  bool used_gmin_stepping = false;
  bool used_source_stepping = false;

  /// Node voltage accessor (ground reads 0).
  [[nodiscard]] double voltage(NodeId n) const;
};

/// Compute the operating point via the homotopy ladder. Converged solutions
/// are memoized in the process-wide solve cache (ppd::cache) keyed on the
/// circuit's OP content hash: a repeat solve of the same electrical system
/// verifies the stored iterate with one linear solve and returns it verbatim
/// — bit-identical to the cold run, counted as spice.newton.warm_start.hit.
/// PPD_CACHE=0 disables the reuse entirely.
[[nodiscard]] OpResult run_op(Circuit& circuit, const OpOptions& options = {});

struct TransientOptions {
  double t_stop = 4e-9;
  double dt = 1e-12;            ///< base step
  Integrator integrator = Integrator::kTrapezoidal;
  NewtonOptions newton;
  /// Adaptive time-step control on Newton iteration counts (the classic
  /// SPICE heuristic): grow the step when Newton converges quickly, shrink
  /// it on slow convergence or a failed step.
  bool adaptive = false;
  double dt_min = 1e-15;
  double dt_max = 2e-11;
  /// Nodes to record (empty = every node). Restricting the probe set saves
  /// memory and time in Monte-Carlo sweeps that only measure two terminals.
  std::vector<NodeId> probe;
  /// Options for the initial operating point (e.g. .NODESET biases to pick
  /// a latch state before integrating).
  OpOptions op;
  /// Wall-clock budget for the WHOLE analysis [s] — the initial operating
  /// point and the integration loop spend from this one deadline; <= 0 =
  /// unlimited. Expiry throws ppd::TimeoutError. `op.budget_seconds`, when
  /// set, additionally tightens just the OP phase (the earlier of the two
  /// deadlines wins there).
  double budget_seconds = 0.0;
};

/// Transient record: one waveform per probed node (all nodes by default).
struct TransientResult {
  std::vector<std::string> node_names;       ///< index = NodeId (0 = ground)
  std::vector<wave::Waveform> node_waves;    ///< index = NodeId; [0] unused
  std::vector<bool> probed;                  ///< index = NodeId
  std::size_t steps = 0;
  std::size_t newton_iterations = 0;
  std::size_t rejected_steps = 0;

  [[nodiscard]] const wave::Waveform& wave(NodeId n) const;
  [[nodiscard]] const wave::Waveform& wave(const std::string& node_name) const;
};

/// Run OP then integrate to t_stop. Throws NumericalError when Newton fails
/// at the minimum step.
///
/// `decided`, when set, is called after each accepted step has been recorded;
/// returning true ends the sweep there (counted in spice.transient.decided).
/// A measurement whose answer is fixed by a prefix of the waveform stops at
/// the step that fixes it: the stepper is causal, so the recorded prefix is
/// bit-identical to the same prefix of the full sweep.
[[nodiscard]] TransientResult run_transient(
    Circuit& circuit, const TransientOptions& options = {},
    const std::function<bool(const TransientResult&)>& decided = {});

}  // namespace ppd::spice
