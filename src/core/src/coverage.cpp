#include "ppd/core/coverage.hpp"

#include <functional>
#include <string>

#include "ppd/obs/trace.hpp"
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

/// Fold per-item verdict rows into the coverage matrix and normalize.
/// Detections are 0/1 counts, so the sum is exact in double arithmetic and
/// the parallel result matches the historical serial accumulation bit for
/// bit; the reduction still runs in item order for good measure.
/// Quarantined items are excluded from both numerator and denominator: each
/// resistance column divides by its own count of valid samples (0 valid ->
/// coverage 0). With an empty report this is exactly the historical
/// divide-by-samples.
CoverageResult reduce_verdicts(const CoverageOptions& options,
                               resil::SweepOutcome sweep) {
  CoverageResult res = make_result(options);
  const auto samples = static_cast<std::size_t>(options.samples);
  std::vector<std::size_t> valid(options.resistances.size(), 0);
  for (std::size_t item = 0; item < sweep.payloads.size(); ++item) {
    const std::size_t r = item / samples;
    if (sweep.quarantine.contains(item)) continue;
    const std::string& row = sweep.payloads[item];
    // A resumed row comes from the checkpoint file.
    if (row.size() != options.multipliers.size())
      throw ParseError("checkpoint item " + std::to_string(item) + " holds " +
                       std::to_string(row.size()) + " verdicts, the sweep has " +
                       std::to_string(options.multipliers.size()) +
                       " multipliers");
    ++valid[r];
    for (std::size_t m = 0; m < row.size(); ++m)
      if (row[m] == '1') res.coverage[m][r] += 1.0;
  }
  // Sum the per-resistance valid counts instead of payloads.size() -
  // quarantine.size(): the size_t difference wraps to ~2^64 whenever the
  // report outnumbers the collected verdicts, and the per-column counts are
  // what the coverage rows were actually normalized by.
  res.simulations = 0;
  for (const std::size_t v : valid) res.simulations += v;
  for (auto& row : res.coverage)
    for (std::size_t r = 0; r < row.size(); ++r)
      row[r] = valid[r] == 0 ? 0.0 : row[r] / static_cast<double>(valid[r]);
  res.quarantine = std::move(sweep.quarantine);
  return res;
}

/// One item's verdicts as its checkpoint payload: '1' at multiplier m when
/// `detects(multipliers[m])`, '0' elsewhere. The payload IS the item's full
/// result, which is what makes a resumed sweep bit-identical to an
/// uninterrupted one.
template <typename Detects>
std::string verdict_row(const std::vector<double>& multipliers,
                        Detects detects) {
  std::string row(multipliers.size(), '0');
  for (std::size_t m = 0; m < multipliers.size(); ++m)
    if (detects(multipliers[m])) row[m] = '1';
  return row;
}

/// Measures one built path instance of MC sample s and returns its
/// verdict_row.
using MeasureRow =
    std::function<std::string(cells::Path&, std::size_t, const SimSettings&)>;

/// The coverage sweep both test methods share. One item = one electrical
/// transient = (resistance r, MC sample s).
CoverageResult run_coverage(const PathFactory& factory,
                            const CoverageOptions& options,
                            const char* context, const MeasureRow& measure) {
  validate(options);
  PPD_REQUIRE(factory.fault.has_value(), "coverage needs a fault site");
  const auto samples = static_cast<std::size_t>(options.samples);
  SimSettings sim = options.sim;
  if (options.resil.solve_budget_seconds > 0.0)
    sim.budget_seconds = options.resil.solve_budget_seconds;
  exec::ParallelOptions par;
  par.threads = options.threads;
  par.cancel = options.cancel;
  // The context names the sweep, so an electrical failure deep inside one
  // sample still says which experiment it broke.
  resil::SweepOutcome sweep = resil::guarded_map(
      options.resil,
      {.items = options.resistances.size() * samples,
       .seed = options.seed,
       .context = context,
       .domain = "core.coverage",
       .item_seed =
           [samples](std::size_t item) {
             return static_cast<std::uint64_t>(item % samples);
           }},
      par, [&](std::size_t item) {
        const std::size_t r = item / samples;
        const std::size_t s = item % samples;
        mc::Rng rng = sample_rng(options.seed, s);
        mc::GaussianVariationSource var(options.variation, rng);
        PathInstance inst = make_instance(factory, options.resistances[r], &var);
        return measure(inst.path, s, sim);
      });
  return reduce_verdicts(options, std::move(sweep));
}

}  // namespace

CoverageResult run_delay_coverage(const PathFactory& factory,
                                  const DelayTestCalibration& cal,
                                  const CoverageOptions& options) {
  const obs::Span span("core.delay_coverage");
  return run_coverage(
      factory, options, "delay-test coverage MC sweep",
      [&](cells::Path& path, std::size_t, const SimSettings& sim) {
        const std::optional<double> d =
            path_delay(path, cal.input_rising, sim);
        return verdict_row(options.multipliers, [&](double multiplier) {
          return delay_detects(d, multiplier * cal.t_nominal, cal.flip_flops);
        });
      });
}

CoverageResult run_pulse_coverage(const PathFactory& factory,
                                  const PulseTestCalibration& cal,
                                  const CoverageOptions& options) {
  const obs::Span span("core.pulse_coverage");
  return run_coverage(
      factory, options, "pulse-test coverage MC sweep",
      [&](cells::Path& path, std::size_t s, const SimSettings& sim) {
        // This die's generator produces its own width (uncertainty (a)).
        mc::Rng gen_rng = sample_rng(options.seed ^ 0xABCDull, s);
        const double applied_width =
            cal.w_in * gen_rng.normal_clipped(1.0, options.generator_sigma, 4.0);
        const std::optional<double> w_out =
            output_pulse_width(path, cal.kind, applied_width, sim);
        return verdict_row(options.multipliers, [&](double multiplier) {
          return pulse_detects(w_out, multiplier * cal.w_th);
        });
      });
}

}  // namespace ppd::core
