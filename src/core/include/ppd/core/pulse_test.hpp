// The paper's proposed method: pulse-propagation testing (Sects. 3-5).
//
// A pulse of nominal width w_in is injected at the path input by a local
// generator; a transition-sensing circuit at the output detects pulses of
// width >= w_th. A fault is detected when the output pulse is dampened
// below the sensing threshold:  f_p^s(w_in, R) < w_th'.
//
// Calibration follows Sect. 5: characterize w_out = f_p(w_in) (three
// regions: dampened / attenuation / asymptotic-linear), put w_in at the
// *beginning of the asymptotic region* — the attenuation region is too
// sensitive to parameter fluctuations — then set w_th so that no fault-free
// Monte-Carlo instance is rejected even for a 10% worst-case sensing
// variation (yield-first, like the baseline).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ppd/core/measure.hpp"

namespace ppd::core {

struct PulseTestCalibration {
  double w_in = 0.0;     ///< nominal injected pulse width [s]
  double w_th = 0.0;     ///< nominal sensing threshold [s]
  PulseKind kind = PulseKind::kH;
  /// Worst-case (smallest) fault-free output width at w_in over the MC set.
  double min_fault_free_w_out = 0.0;
};

struct PulseCalibrationOptions {
  int samples = 50;
  std::uint64_t seed = 1;
  mc::VariationModel variation;
  SimSettings sim;
  PulseKind kind = PulseKind::kH;
  /// Candidate w_in grid; the calibrated w_in is the smallest grid value in
  /// the asymptotic region whose MC-minimum output width clears the sensor
  /// floor with the guard margin.
  std::vector<double> w_in_grid;        ///< default: 0.1 ns .. 0.8 ns, 15 pts
  /// The asymptotic ("region 3") test: the local slope of the nominal curve
  /// must sit within this band around the ideal slope 1 (the attenuation
  /// region approaches the asymptote from above, with slopes > 1).
  double slope_tolerance = 0.12;
  /// Sensing-circuit uncertainty guard: no false positive allowed when the
  /// actual threshold is (1+guard)*w_th (paper: 10%).
  double sensor_guard = 0.10;
  /// Smallest pulse the sensing circuit can be built to detect.
  double w_th_floor = 50e-12;
  /// Relative sigma of the on-chip pulse generator's width (Sect. 3's
  /// uncertainty (a)); the calibration evaluates the fault-free minimum at
  /// the generator's low tail, w_in * (1 - generator_guard_sigmas * sigma).
  double generator_sigma = 0.03;
  double generator_guard_sigmas = 3.0;
};

/// Monte-Carlo calibration for `factory`'s path (built fault-free).
/// Every option is validated (PreconditionError) before the first transient.
/// Throws NumericalError when no grid point satisfies the constraints.
[[nodiscard]] PulseTestCalibration calibrate_pulse_test(
    const PathFactory& factory, const PulseCalibrationOptions& options);

/// Detection predicate: a dampened (nullopt) or under-threshold output
/// pulse flags the fault.
[[nodiscard]] bool pulse_detects(std::optional<double> measured_w_out,
                                 double w_th_applied);

/// Classify the regions of a transfer curve (Fig. 10): returns the index of
/// the first grid point from which every local slope stays within
/// `slope_tolerance` of the ideal slope 1 (the attenuation region has
/// slopes > 1), or nullopt when the curve never straightens.
/// `w_out_at(i)` yields w_out at grid index i (0 dampened, NaN failed). The
/// rule walks down from the top of the grid and calls it once per index,
/// from n-1 to the lower point of the first segment outside the band, so a
/// caller can measure lazily. The tolerance and the grid's order are
/// checked before the first call.
[[nodiscard]] std::optional<std::size_t> asymptotic_onset(
    const std::vector<double>& w_in_grid,
    const std::function<double(std::size_t)>& w_out_at,
    double slope_tolerance);

/// The same rule over an already measured curve.
[[nodiscard]] std::optional<std::size_t> asymptotic_onset(
    const TransferCurve& curve, double slope_tolerance);

}  // namespace ppd::core
