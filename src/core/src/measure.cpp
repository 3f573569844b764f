#include "ppd/core/measure.hpp"

#include <cmath>
#include <limits>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/spice/analysis.hpp"
#include "ppd/spice/hash.hpp"
#include "ppd/util/error.hpp"
#include "ppd/wave/waveform.hpp"

namespace ppd::core {

PathInstance make_instance(const PathFactory& factory, double fault_ohms,
                           cells::VariationSource* variation) {
  cells::Path path = cells::build_path(factory.process, factory.options, variation);
  std::optional<faults::InjectedFault> injected;
  if (factory.fault.has_value() && fault_ohms > 0.0)
    injected = faults::inject_on_path(path, *factory.fault, fault_ohms);
  return PathInstance(std::move(path), std::move(injected));
}

mc::Rng sample_rng(std::uint64_t seed, std::size_t sample) {
  // Distinct, well-mixed stream per (seed, sample) — the exec-parallel
  // seeding contract (mc::derive_rng), so sweeps parallelized over samples
  // reproduce the serial population bit-for-bit.
  return mc::derive_rng(seed, sample);
}

spice::TransientOptions make_transient_options(const SimSettings& sim,
                                               double t_stop,
                                               const cells::Path& path) {
  spice::TransientOptions opt;
  opt.t_stop = t_stop;
  opt.dt = sim.dt;
  opt.integrator = sim.integrator;
  opt.adaptive = sim.adaptive;
  opt.dt_max = sim.dt_max;
  opt.dt_min = sim.dt_min;
  // Tolerances steer BOTH Newton loops — the transient's and the operating
  // point's — so a loosened measurement is loose end to end.
  opt.newton.abstol = sim.newton_abstol;
  opt.newton.reltol = sim.newton_reltol;
  opt.op.newton.abstol = sim.newton_abstol;
  opt.op.newton.reltol = sim.newton_reltol;
  // One budget covers both phases: the transient's deadline is shared with
  // its initial operating point, so a hung OP and a hung integration loop
  // surface as the same TimeoutError within ~1x the budget. op.budget_seconds
  // stays 0 — setting both here used to grant each phase a full budget,
  // letting a "budgeted" measurement run for twice what it was given.
  opt.budget_seconds = sim.budget_seconds;
  // The measurements only look at the path terminals.
  opt.probe = {path.input(), path.output()};
  // Seed the operating point with every stage's DC logic level. A sensitized
  // path is a chain of primitives with side inputs at non-controlling
  // values, so each stage resolves to an inverter of the previous level and
  // the ladder is known in closed form from the input's rest level. A
  // flat-zero Newton start loses the operating point beyond ~60 stages
  // (every homotopy rung exhausted); the seeded start converges in a few
  // iterations at any chain length.
  const double vdd = path.netlist().process().vdd;
  bool high = path.rest_level() > 0.5 * vdd;
  opt.op.nodesets.reserve(path.length() + 1);
  opt.op.nodesets.emplace_back(path.input(), high ? vdd : 0.0);
  const auto& stages = path.stages();
  const auto& outputs = path.stage_outputs();
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (cells::gate_inverting(path.netlist().gate(stages[i]).kind)) high = !high;
    opt.op.nodesets.emplace_back(outputs[i], high ? vdd : 0.0);
  }
  return opt;
}

namespace {

/// Content key for one measurement. The circuit hash embeds the
/// process corner, the per-sample variation draw, the injected fault
/// resistance AND the already-driven stimulus spec (drive_pulse /
/// drive_transition rewrite the input source before we are called), so two
/// keys collide only for electrically identical measurements. Simulator
/// settings that shape the integration ride along; budget_seconds stays out
/// (timeouts throw and are never cached).
std::uint64_t measure_cache_key(const std::string& domain,
                                const cells::Path& path,
                                const SimSettings& sim, double t_stop) {
  cache::Hasher h;
  h.str(domain);
  spice::hash_circuit(h, path.netlist().circuit());
  h.f64(sim.dt);
  h.u8(sim.integrator == spice::Integrator::kTrapezoidal ? 0 : 1);
  h.boolean(sim.adaptive);
  h.f64(sim.dt_max);
  // Every solver knob that changes the computed waveform must land in the
  // key: dt_min moves the adaptive rejection floor and the Newton tolerances
  // move every iterate, so two measurements differing only here are NOT the
  // same measurement (omitting them let a run with loose tolerances poison
  // the cache for a later strict run).
  h.f64(sim.dt_min);
  h.f64(sim.newton_abstol);
  h.f64(sim.newton_reltol);
  h.f64(t_stop);
  h.i64(path.input());
  h.i64(path.output());
  h.boolean(path.same_polarity());
  return h.value();
}

/// Measurement results are optional<double> (nullopt = "no edge/pulse at
/// the output", a legitimate physical answer); encode as {flag, value} so
/// a cached dampened pulse round-trips distinct from a cached 0-width one.
std::vector<double> encode_measurement(const std::optional<double>& v) {
  return {v.has_value() ? 1.0 : 0.0, v.value_or(0.0)};
}

std::optional<double> decode_measurement(const std::vector<double>& enc) {
  if (enc[0] != 0.0) return enc[1];
  return std::nullopt;
}

/// Cache gate shared by the measurements: off when the user disabled
/// reuse and under fault injection (a replayed result would mask the very
/// failures a chaos plan injects).
bool measurement_cache_usable() {
  return cache::cache_enabled() && !resil::fault_injection_active();
}

/// Does the newest sample of `w` complete a crossing of `level`? Only such
/// a step can give a first-crossing measurement its answer, so the stop
/// predicate in measure_transient re-measures (O(samples)) only there.
bool crossed_at_last_sample(const wave::Waveform& w, double level) {
  const std::size_t n = w.size();
  if (n < 2) return false;
  const double v0 = w.value(n - 2), v1 = w.value(n - 1);
  return (v0 < level && v1 >= level) || (v0 > level && v1 <= level);
}

/// Run the measurement transient and apply `measure` to it, stopping the
/// sweep at the step that decides the answer. That is bit-identical to
/// measuring the full sweep, for two reasons:
///  1. The stepper is causal: step k depends only on earlier steps, and
///     t_stop enters only through the final-step clip and sliver absorb, so
///     the stopped waveform is a bitwise prefix of the full one.
///  2. wave::first_crossing returns the first match in scan order, so a
///     prefix that yields an answer yields the full waveform's answer, down
///     to the interpolation between samples i-1 and i (both recorded).
template <class Measure>
std::optional<double> measure_transient(cells::Path& path,
                                        const SimSettings& sim, double t_stop,
                                        double half, const Measure& measure) {
  const auto res = spice::run_transient(
      path.netlist().circuit(), make_transient_options(sim, t_stop, path),
      [&](const spice::TransientResult& r) {
        return crossed_at_last_sample(r.wave(path.output()), half) &&
               measure(r).has_value();
      });
  return measure(res);
}

}  // namespace

std::optional<double> path_delay(cells::Path& path, bool input_rising,
                                 const SimSettings& sim) {
  path.drive_transition(input_rising, sim.t_launch);
  const double t_stop = sim.t_launch + sim.t_tail;
  const bool use_cache = measurement_cache_usable();
  const std::uint64_t key =
      use_cache ? measure_cache_key("core.path_delay", path, sim, t_stop) : 0;
  if (use_cache) {
    if (const auto cached = cache::solve_cache().get(key);
        cached.has_value() && cached->size() == 2)
      return decode_measurement(*cached);
  }
  const double half = path.netlist().process().vdd / 2.0;
  const bool out_rising = path.same_polarity() == input_rising;
  const auto delay = measure_transient(
      path, sim, t_stop, half, [&](const spice::TransientResult& r) {
        return wave::propagation_delay(
            r.wave(path.input()), r.wave(path.output()), half,
            input_rising ? wave::Edge::kRise : wave::Edge::kFall,
            out_rising ? wave::Edge::kRise : wave::Edge::kFall);
      });
  if (use_cache) cache::solve_cache().put(key, encode_measurement(delay));
  return delay;
}

std::optional<double> output_pulse_width(cells::Path& path, PulseKind kind,
                                         double w_in, const SimSettings& sim) {
  const bool positive_in = kind == PulseKind::kH;
  path.drive_pulse(positive_in, w_in, sim.t_launch);
  const double t_stop = sim.t_launch + w_in + sim.t_tail;
  // Memoized on the full measurement content: find_r_min re-measures the
  // same (sample, R) pair at every bisection step, and the coverage R-grid
  // re-builds identical fault-free instances per sample — those repeats hit
  // here instead of re-running the transient.
  const bool use_cache = measurement_cache_usable();
  const std::uint64_t key =
      use_cache ? measure_cache_key("core.pulse_width", path, sim, t_stop) : 0;
  if (use_cache) {
    if (const auto cached = cache::solve_cache().get(key);
        cached.has_value() && cached->size() == 2)
      return decode_measurement(*cached);
  }
  const double half = path.netlist().process().vdd / 2.0;
  const bool positive_out = path.same_polarity() == positive_in;
  const auto width = measure_transient(
      path, sim, t_stop, half, [&](const spice::TransientResult& r) {
        return wave::pulse_width(r.wave(path.output()), half, positive_out);
      });
  if (use_cache) cache::solve_cache().put(key, encode_measurement(width));
  return width;
}

double transfer_point(cells::Path& path, PulseKind kind, double w_in,
                      const SimSettings& sim) {
  // A dampened pulse (nullopt -> 0) is a physical result; a solver failure
  // is not. Conflating them used to record a diverged solve as w_out = 0 —
  // indistinguishable from perfect attenuation — so a failure reads as NaN.
  try {
    return output_pulse_width(path, kind, w_in, sim).value_or(0.0);
  } catch (const NumericalError&) {
    obs::counter("core.transfer.failures").add();
    return std::numeric_limits<double>::quiet_NaN();
  }
}

TransferCurve transfer_function(cells::Path& path, PulseKind kind,
                                const std::vector<double>& w_in_grid,
                                const SimSettings& sim) {
  TransferCurve curve;
  curve.w_in = w_in_grid;
  curve.w_out.reserve(w_in_grid.size());
  curve.failed.reserve(w_in_grid.size());
  for (double w : w_in_grid) {
    const double out = transfer_point(path, kind, w, sim);
    const bool failed = std::isnan(out);
    curve.w_out.push_back(out);
    curve.failed.push_back(failed ? 1 : 0);
    if (failed) ++curve.n_failed;
  }
  return curve;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  PPD_REQUIRE(n >= 2, "linspace needs at least 2 points");
  PPD_REQUIRE(hi > lo, "linspace needs hi > lo");
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return v;
}

std::vector<double> logspace(double lo, double hi, std::size_t n) {
  PPD_REQUIRE(lo > 0.0, "logspace needs lo > 0");
  PPD_REQUIRE(n >= 2, "logspace needs at least 2 points");
  PPD_REQUIRE(hi > lo, "logspace needs hi > lo");
  std::vector<double> v(n);
  const double llo = std::log(lo), lhi = std::log(hi);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::exp(llo + (lhi - llo) * static_cast<double>(i) /
                              static_cast<double>(n - 1));
  return v;
}

}  // namespace ppd::core
