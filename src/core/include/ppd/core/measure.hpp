// Electrical-level measurements underlying both test methods:
// path propagation delay (DF testing) and the pulse transfer function
// w_out = f_p(w_in) (the proposed method), evaluated on freshly built
// Monte-Carlo instances of a sensitized path with an optional injected
// defect.
#pragma once

#include <optional>
#include <vector>

#include "ppd/cells/path.hpp"
#include "ppd/faults/fault.hpp"
#include "ppd/mc/variation.hpp"
#include "ppd/spice/analysis.hpp"

namespace ppd::core {

/// Pulse polarity at the path input (paper Sect. 4: kinds h and l).
enum class PulseKind { kH, kL };  // h: low-high-low, l: high-low-high

/// Transient settings shared by all measurements.
struct SimSettings {
  double dt = 2e-12;
  double t_launch = 0.3e-9;      ///< stimulus launch time
  double t_tail = 2.5e-9;        ///< settle window after the stimulus
  spice::Integrator integrator = spice::Integrator::kTrapezoidal;
  /// Iteration-count step control, validated against fixed stepping in the
  /// test suite; the default favours Monte-Carlo throughput.
  bool adaptive = true;
  double dt_max = 8e-12;
  /// Adaptive rejection floor; the defaults match spice::TransientOptions.
  double dt_min = 1e-15;
  /// Newton voltage tolerances, applied to every solve in the measurement
  /// (operating point and transient alike).
  double newton_abstol = 1e-6;
  double newton_reltol = 1e-4;
  /// Wall-clock budget per electrical measurement [s]; <= 0 = unlimited.
  /// ONE deadline of this length covers the whole analysis — operating
  /// point and transient integration spend from the same budget — and
  /// expiry raises ppd::TimeoutError (see ppd::resil) instead of spinning
  /// unbounded.
  double budget_seconds = 0.0;
};

/// SPICE options for one measurement transient: integration settings from
/// `sim`, probes restricted to the path terminals, and the single shared
/// wall-clock budget (op.budget_seconds stays 0 — the OP draws from the
/// transient's own deadline, so a budgeted measurement cannot run for twice
/// its budget). Public so tests can pin the budget wiring.
[[nodiscard]] spice::TransientOptions make_transient_options(
    const SimSettings& sim, double t_stop, const cells::Path& path);

/// Recipe for building path instances: the experiment framework rebuilds a
/// fresh transistor-level circuit per Monte-Carlo sample, with the same
/// fault site spliced in each time.
struct PathFactory {
  cells::Process process;
  cells::PathOptions options;
  std::optional<faults::PathFaultSpec> fault;
};

/// A built instance: the path plus its injected defect handle (present only
/// when the factory has a fault and resistance > 0).
struct PathInstance {
  PathInstance(cells::Path p, std::optional<faults::InjectedFault> f)
      : path(std::move(p)), fault(std::move(f)) {}
  cells::Path path;
  std::optional<faults::InjectedFault> fault;
};

/// Build one instance; `fault_ohms <= 0` builds fault-free.
[[nodiscard]] PathInstance make_instance(const PathFactory& factory,
                                         double fault_ohms,
                                         cells::VariationSource* variation);

/// Deterministic per-sample RNG derivation (same sample index -> same
/// circuit instance, regardless of evaluation order).
[[nodiscard]] mc::Rng sample_rng(std::uint64_t seed, std::size_t sample);

/// 50%-to-50% propagation delay of a single input transition through the
/// path. Returns nullopt when the output never switches within the window
/// (an unbounded delay defect).
[[nodiscard]] std::optional<double> path_delay(cells::Path& path,
                                               bool input_rising,
                                               const SimSettings& sim);

/// Output pulse width at 50% VDD for an injected input pulse of 50%-width
/// `w_in`. Returns nullopt when the pulse is dampened (never completes at
/// the output). The polarity observed at the output accounts for the path's
/// inversion parity.
[[nodiscard]] std::optional<double> output_pulse_width(cells::Path& path,
                                                       PulseKind kind,
                                                       double w_in,
                                                       const SimSettings& sim);

/// Sampled pulse transfer function of one circuit instance (Fig. 10): pairs
/// (w_in, w_out) over a width grid, with 0 recorded for dampened pulses.
/// A dampened pulse (w_out = 0) is a *measurement*; a solver failure is
/// not — failed points carry w_out = NaN and failed[i] != 0 so downstream
/// consumers cannot mistake a diverged solve for perfect attenuation.
struct TransferCurve {
  std::vector<double> w_in;
  std::vector<double> w_out;   ///< 0 when dampened, NaN when the solve failed
  std::vector<char> failed;    ///< per-point solver-failure flag
  std::size_t n_failed = 0;    ///< number of failed points
};

/// One point of the transfer function: w_out for `w_in`, 0 when the pulse is
/// dampened, NaN when the solve failed (a NumericalError, counted in
/// `core.transfer.failures`).
[[nodiscard]] double transfer_point(cells::Path& path, PulseKind kind,
                                    double w_in, const SimSettings& sim);

[[nodiscard]] TransferCurve transfer_function(cells::Path& path, PulseKind kind,
                                              const std::vector<double>& w_in_grid,
                                              const SimSettings& sim);

/// Uniformly spaced grid helper [lo, hi] with n points (n >= 2).
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Log-spaced grid helper [lo, hi] with n points (n >= 2, lo > 0).
[[nodiscard]] std::vector<double> logspace(double lo, double hi, std::size_t n);

}  // namespace ppd::core
