#include "ppd/core/coverage.hpp"

#include "ppd/exec/parallel.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {

namespace {

void validate(const CoverageOptions& options) {
  PPD_REQUIRE(options.samples > 0, "need at least one MC sample");
  PPD_REQUIRE(!options.resistances.empty(), "need a resistance sweep");
  PPD_REQUIRE(!options.multipliers.empty(), "need at least one multiplier");
}

CoverageResult make_result(const CoverageOptions& options) {
  CoverageResult res;
  res.resistances = options.resistances;
  res.multipliers = options.multipliers;
  res.coverage.assign(options.multipliers.size(),
                      std::vector<double>(options.resistances.size(), 0.0));
  return res;
}

exec::ParallelOptions parallel_options(const CoverageOptions& options,
                                       const char* what) {
  exec::ParallelOptions par;
  par.threads = options.threads;
  par.cancel = options.cancel;
  // Item i = (resistance r, MC sample s); name the sweep so an electrical
  // failure deep inside one sample still says which experiment it broke.
  par.context = what;
  return par;
}

/// Fold per-item detection verdicts into the coverage matrix and normalize.
/// Detections are 0/1 counts, so the sum is exact in double arithmetic and
/// the parallel result matches the historical serial accumulation bit for
/// bit; the reduction still runs in item order for good measure.
/// Quarantined items are excluded from both numerator and denominator: each
/// resistance column divides by its own count of valid samples (0 valid ->
/// coverage 0). With an empty report this is exactly the historical
/// divide-by-samples.
CoverageResult reduce_verdicts(const CoverageOptions& options,
                               const std::vector<std::vector<char>>& verdicts,
                               resil::QuarantineReport quarantine) {
  CoverageResult res = make_result(options);
  const auto samples = static_cast<std::size_t>(options.samples);
  std::vector<std::size_t> valid(options.resistances.size(), 0);
  for (std::size_t item = 0; item < verdicts.size(); ++item) {
    const std::size_t r = item / samples;
    if (quarantine.contains(item)) continue;
    ++valid[r];
    for (std::size_t m = 0; m < options.multipliers.size(); ++m)
      if (verdicts[item][m]) res.coverage[m][r] += 1.0;
  }
  // Sum the per-resistance valid counts instead of verdicts.size() -
  // quarantine.size(): the size_t difference wraps to ~2^64 whenever the
  // report outnumbers the collected verdicts, and the per-column counts are
  // what the coverage rows were actually normalized by.
  res.simulations = 0;
  for (const std::size_t v : valid) res.simulations += v;
  for (auto& row : res.coverage)
    for (std::size_t r = 0; r < row.size(); ++r)
      row[r] = valid[r] == 0 ? 0.0 : row[r] / static_cast<double>(valid[r]);
  res.quarantine = std::move(quarantine);
  return res;
}

/// Verdict row <-> checkpoint payload ('0'/'1' per multiplier). The payload
/// IS the item's full result, which is what makes a resumed sweep
/// bit-identical to an uninterrupted one.
std::string encode_verdicts(const std::vector<char>& hit) {
  std::string s(hit.size(), '0');
  for (std::size_t i = 0; i < hit.size(); ++i)
    if (hit[i]) s[i] = '1';
  return s;
}

std::vector<char> decode_verdicts(const std::string& payload) {
  std::vector<char> hit(payload.size(), 0);
  for (std::size_t i = 0; i < payload.size(); ++i)
    hit[i] = payload[i] == '1' ? 1 : 0;
  return hit;
}

}  // namespace

CoverageResult run_delay_coverage(const PathFactory& factory,
                                  const DelayTestCalibration& cal,
                                  const CoverageOptions& options) {
  const obs::Span span("core.delay_coverage");
  validate(options);
  PPD_REQUIRE(factory.fault.has_value(), "coverage needs a fault site");
  const auto samples = static_cast<std::size_t>(options.samples);
  const std::size_t items = options.resistances.size() * samples;
  exec::SweepStats stats;

  resil::SweepGuard guard(
      options.resil, items, options.seed, "delay-test coverage MC sweep",
      [samples](std::size_t item) { return static_cast<std::uint64_t>(item % samples); });
  exec::ParallelOptions par =
      parallel_options(options, "delay-test coverage MC sweep");
  guard.arm(par);
  SimSettings sim = options.sim;
  if (guard.solve_budget_seconds() > 0.0)
    sim.budget_seconds = guard.solve_budget_seconds();

  // One item = one electrical transient = (resistance r, MC sample s); its
  // verdict row holds the detection flag per clock multiplier.
  std::vector<std::vector<char>> verdicts;
  try {
    verdicts = exec::parallel_map(
        items,
        [&](std::size_t item) -> std::vector<char> {
          if (const auto saved = guard.cached(item)) return decode_verdicts(*saved);
          const resil::FaultScope inject(guard.plan(), item);
          resil::inject_item_delay();
          resil::inject_item_failure();
          const std::size_t r = item / samples;
          const std::size_t s = item % samples;
          mc::Rng rng = sample_rng(options.seed, s);
          mc::GaussianVariationSource var(options.variation, rng);
          PathInstance inst =
              make_instance(factory, options.resistances[r], &var);
          const std::optional<double> d =
              path_delay(inst.path, cal.input_rising, sim);
          std::vector<char> hit(options.multipliers.size(), 0);
          for (std::size_t m = 0; m < options.multipliers.size(); ++m) {
            const double t_applied = options.multipliers[m] * cal.t_nominal;
            hit[m] = delay_detects(d, t_applied, cal.flip_flops) ? 1 : 0;
          }
          guard.complete(item, encode_verdicts(hit));
          return hit;
        },
        par, &stats);
  } catch (const exec::CancelledError& e) {
    guard.cancelled(e);
  }
  exec::record_sweep("core.coverage", stats);
  return reduce_verdicts(options, verdicts, guard.finish());
}

CoverageResult run_pulse_coverage(const PathFactory& factory,
                                  const PulseTestCalibration& cal,
                                  const CoverageOptions& options) {
  const obs::Span span("core.pulse_coverage");
  validate(options);
  PPD_REQUIRE(factory.fault.has_value(), "coverage needs a fault site");
  const auto samples = static_cast<std::size_t>(options.samples);
  const std::size_t items = options.resistances.size() * samples;
  exec::SweepStats stats;

  resil::SweepGuard guard(
      options.resil, items, options.seed, "pulse-test coverage MC sweep",
      [samples](std::size_t item) { return static_cast<std::uint64_t>(item % samples); });
  exec::ParallelOptions par =
      parallel_options(options, "pulse-test coverage MC sweep");
  guard.arm(par);
  SimSettings sim = options.sim;
  if (guard.solve_budget_seconds() > 0.0)
    sim.budget_seconds = guard.solve_budget_seconds();

  // This die's generator produces its own width (uncertainty (a)).
  const auto applied_width = [&](std::size_t s) {
    mc::Rng gen_rng = sample_rng(options.seed ^ 0xABCDull, s);
    return cal.w_in *
           gen_rng.normal_clipped(1.0, options.generator_sigma, 4.0);
  };
  std::vector<std::vector<char>> verdicts;
  try {
    verdicts = exec::parallel_map(
        items,
        [&](std::size_t item) -> std::vector<char> {
          if (const auto saved = guard.cached(item)) return decode_verdicts(*saved);
          const resil::FaultScope inject(guard.plan(), item);
          resil::inject_item_delay();
          resil::inject_item_failure();
          const std::size_t r = item / samples;
          const std::size_t s = item % samples;
          mc::Rng rng = sample_rng(options.seed, s);
          mc::GaussianVariationSource var(options.variation, rng);
          PathInstance inst =
              make_instance(factory, options.resistances[r], &var);
          const std::optional<double> w_out =
              output_pulse_width(inst.path, cal.kind, applied_width(s), sim);
          std::vector<char> hit(options.multipliers.size(), 0);
          for (std::size_t m = 0; m < options.multipliers.size(); ++m) {
            const double w_th_applied = options.multipliers[m] * cal.w_th;
            hit[m] = pulse_detects(w_out, w_th_applied) ? 1 : 0;
          }
          guard.complete(item, encode_verdicts(hit));
          return hit;
        },
        par, &stats);
  } catch (const exec::CancelledError& e) {
    guard.cancelled(e);
  }
  exec::record_sweep("core.coverage", stats);
  return reduce_verdicts(options, verdicts, guard.finish());
}

}  // namespace ppd::core
