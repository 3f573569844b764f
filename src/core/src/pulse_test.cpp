#include "ppd/core/pulse_test.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ppd/util/error.hpp"

namespace ppd::core {

std::optional<std::size_t> asymptotic_onset(
    const std::vector<double>& w_in_grid,
    const std::function<double(std::size_t)>& w_out_at, double slope_tolerance) {
  PPD_REQUIRE(slope_tolerance > 0.0 && slope_tolerance < 1.0,
              "slope tolerance must be in (0, 1)");
  const std::size_t n = w_in_grid.size();
  for (std::size_t i = 0; i + 1 < n; ++i)
    PPD_REQUIRE(w_in_grid[i + 1] - w_in_grid[i] > 0.0,
                "w_in grid must be increasing");
  if (n < 2) return std::nullopt;
  // Slope between consecutive grid points; segment i covers [i, i+1].
  // The attenuation region approaches the asymptote from *above* (slope > 1
  // while the curve catches up), so "asymptotic" means the slope sits in a
  // band around the ideal 1, not merely above a floor. The onset is the
  // first point from which every later segment stays inside the band (and
  // the pulse actually propagates there). Walking down from the top, each
  // point is read once: the lower end of one segment is the upper end of
  // the next. A NaN (failed) point fails the band test and ends the walk.
  std::optional<std::size_t> onset;
  double upper = w_out_at(n - 1);
  for (std::size_t i = n - 1; i-- > 0;) {
    const double lower = w_out_at(i);
    const double slope = (upper - lower) / (w_in_grid[i + 1] - w_in_grid[i]);
    const bool in_band = std::abs(slope - 1.0) <= slope_tolerance;
    if (!in_band || !(lower > 0.0)) break;
    onset = i;
    upper = lower;
  }
  return onset;
}

std::optional<std::size_t> asymptotic_onset(const TransferCurve& curve,
                                            double slope_tolerance) {
  PPD_REQUIRE(curve.w_in.size() == curve.w_out.size(), "malformed curve");
  return asymptotic_onset(
      curve.w_in, [&](std::size_t i) { return curve.w_out[i]; },
      slope_tolerance);
}

PulseTestCalibration calibrate_pulse_test(const PathFactory& factory,
                                          const PulseCalibrationOptions& options) {
  std::vector<double> grid = options.w_in_grid;
  if (grid.empty()) grid = linspace(0.10e-9, 0.80e-9, 15);
  // Generator tail: the injected width itself fluctuates (uncertainty (a)
  // of Sect. 3); calibrate against the slow generator's narrowest pulse.
  const double generator_derate =
      1.0 - options.generator_guard_sigmas * options.generator_sigma;

  // Checked before the first transient, since the walk below may never reach
  // a bad grid point; asymptotic_onset checks the tolerance and the grid's
  // order before it reads one.
  PPD_REQUIRE(options.samples > 0, "need at least one MC sample");
  PPD_REQUIRE(options.sensor_guard >= 0.0 && options.sensor_guard < 1.0,
              "sensor guard must be in [0, 1)");
  PPD_REQUIRE(std::all_of(grid.begin(), grid.end(),
                          [](double w) { return w > 0.0; }),
              "w_in grid values must be positive");
  PPD_REQUIRE(generator_derate > 0.0, "generator sigma too large");

  // Nominal characterization of f_p (Sect. 5 / Fig. 10), measured from the
  // top of the grid down and only as far as the onset rule reads: the
  // dampened points below the attenuation region never run.
  PathInstance nominal = make_instance(factory, 0.0, nullptr);
  const auto onset = asymptotic_onset(
      grid,
      [&](std::size_t i) {
        return transfer_point(nominal.path, options.kind, grid[i], options.sim);
      },
      options.slope_tolerance);
  if (!onset.has_value())
    throw NumericalError(
        "pulse calibration: transfer curve never reaches the asymptotic "
        "region on the supplied w_in grid");

  // Walk the asymptotic region from its onset upward; stop at the first
  // candidate whose Monte-Carlo minimum output width supports a feasible
  // sensing threshold under worst-case sensor variation.
  for (std::size_t c = *onset; c < grid.size(); ++c) {
    const double w_in = grid[c];
    const double w_in_worst = w_in * generator_derate;
    double min_w_out = std::numeric_limits<double>::infinity();
    bool all_propagate = true;
    for (int s = 0; s < options.samples && all_propagate; ++s) {
      mc::Rng rng = sample_rng(options.seed, static_cast<std::size_t>(s));
      mc::GaussianVariationSource var(options.variation, rng);
      PathInstance inst = make_instance(factory, 0.0, &var);
      const auto w_out =
          output_pulse_width(inst.path, options.kind, w_in_worst, options.sim);
      if (!w_out.has_value()) {
        all_propagate = false;
        break;
      }
      min_w_out = std::min(min_w_out, *w_out);
    }
    if (!all_propagate) continue;
    // No false positive even when the sensor threshold runs high by the
    // guard factor: (1+guard) * w_th <= min fault-free w_out.
    const double w_th = min_w_out / (1.0 + options.sensor_guard);
    if (w_th < options.w_th_floor) continue;

    PulseTestCalibration cal;
    cal.w_in = w_in;
    cal.w_th = w_th;
    cal.kind = options.kind;
    cal.min_fault_free_w_out = min_w_out;
    return cal;
  }
  throw NumericalError(
      "pulse calibration: no w_in candidate satisfies the zero-false-positive "
      "constraints");
}

bool pulse_detects(std::optional<double> measured_w_out, double w_th_applied) {
  if (!measured_w_out.has_value()) return true;  // pulse fully dampened
  return *measured_w_out < w_th_applied;
}

}  // namespace ppd::core
