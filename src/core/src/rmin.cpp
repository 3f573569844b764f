#include "ppd/core/rmin.hpp"

#include <string>

#include "ppd/obs/trace.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {

namespace {

/// Fraction of the MC population detected at resistance r. Samples run in
/// parallel (options.threads); each derives its RNG from (seed, sample), so
/// the fraction is bit-identical to the serial loop. Quarantined samples
/// drop from both numerator and denominator (fraction 0 when every sample
/// is quarantined).
double detected_fraction(const PathFactory& factory,
                         const PulseTestCalibration& cal,
                         const RminOptions& options, double r,
                         std::size_t& simulations, std::size_t& quarantined) {
  // Each bisection step is its own short sweep; checkpointing would clash
  // across steps, so only quarantine/budget/injection carry over.
  resil::SweepPolicy policy = options.resil;
  policy.checkpoint_path.clear();
  policy.resume = false;
  SimSettings sim = options.sim;
  if (policy.solve_budget_seconds > 0.0)
    sim.budget_seconds = policy.solve_budget_seconds;
  exec::ParallelOptions par;
  par.threads = options.threads;
  par.cancel = options.cancel;
  const auto samples = static_cast<std::size_t>(options.samples);
  const resil::SweepOutcome sweep = resil::guarded_map(
      policy,
      {.items = samples,
       .seed = options.seed,
       .context = "r_min MC sweep at R = " + std::to_string(r) + " ohm",
       .domain = "core.rmin"},
      par, [&](std::size_t s) {
        mc::Rng rng = sample_rng(options.seed, s);
        mc::GaussianVariationSource var(options.variation, rng);
        PathInstance inst = make_instance(factory, r, &var);
        const std::optional<double> w_out =
            output_pulse_width(inst.path, cal.kind, cal.w_in, sim);
        return std::string(1, pulse_detects(w_out, cal.w_th) ? '1' : '0');
      });
  quarantined += sweep.quarantine.size();
  // Count valid samples by walking the results, never as samples -
  // quarantine.size(): size_t subtraction wraps when the report outnumbers
  // the collected results, turning an empty population into ~2^64 "valid"
  // samples.
  std::size_t valid = 0;
  int detected = 0;
  for (std::size_t s = 0; s < sweep.payloads.size(); ++s) {
    if (sweep.quarantine.contains(s)) continue;
    ++valid;
    if (sweep.payloads[s] == "1") ++detected;
  }
  simulations += valid;
  return valid == 0 ? 0.0
                    : static_cast<double>(detected) / static_cast<double>(valid);
}

}  // namespace

RminResult find_r_min(const PathFactory& factory, const PulseTestCalibration& cal,
                      const RminOptions& options) {
  const obs::Span span("core.find_r_min");
  PPD_REQUIRE(factory.fault.has_value(), "r_min needs a fault site");
  PPD_REQUIRE(options.r_hi > options.r_lo && options.r_lo > 0.0,
              "invalid resistance bracket");
  PPD_REQUIRE(options.target_coverage > 0.0 && options.target_coverage <= 1.0,
              "target coverage must be in (0, 1]");

  RminResult res;
  // Bracket check: detected at r_hi, undetected at r_lo.
  if (detected_fraction(factory, cal, options, options.r_hi, res.simulations, res.n_quarantined) <
      options.target_coverage) {
    res.detectable = false;
    return res;
  }
  res.detectable = true;
  double lo = options.r_lo;
  double hi = options.r_hi;
  if (detected_fraction(factory, cal, options, lo, res.simulations, res.n_quarantined) >=
      options.target_coverage) {
    res.r_min = lo;  // detected across the whole bracket
    return res;
  }
  for (int i = 0; i < options.bisection_steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (detected_fraction(factory, cal, options, mid, res.simulations, res.n_quarantined) >=
        options.target_coverage)
      hi = mid;
    else
      lo = mid;
  }
  res.r_min = hi;
  return res;
}

}  // namespace ppd::core
