// Fault-coverage experiments (paper Sect. 4, Figs. 6-9): Monte-Carlo
// populations of faulty path instances evaluated against both test methods
// over a defect-resistance sweep.
//
// C_del(R; T')   — fraction of instances failing DF testing at clock T'
// C_pulse(R; w') — fraction of instances whose output pulse drops below w'
//
// One electrical measurement per (sample, R) serves every multiplier of the
// swept test parameter, exactly as one fabricated die would be re-tested at
// several clock periods / sensing thresholds.
#pragma once

#include <cstdint>
#include <vector>

#include "ppd/core/delay_test.hpp"
#include "ppd/core/pulse_test.hpp"
#include "ppd/exec/cancel.hpp"
#include "ppd/resil/quarantine.hpp"
#include "ppd/resil/sweep_guard.hpp"

namespace ppd::core {

struct CoverageOptions {
  int samples = 50;
  std::uint64_t seed = 1;
  mc::VariationModel variation;
  SimSettings sim;
  std::vector<double> resistances;  ///< defect sweep [ohm]
  /// Multipliers applied to the calibrated test parameter (paper: 0.9/1/1.1).
  std::vector<double> multipliers{0.9, 1.0, 1.1};
  /// Per-instance jitter of the on-chip pulse generator's width (relative
  /// sigma; pulse coverage only). The calibration already guards against
  /// the same uncertainty (PulseCalibrationOptions::generator_sigma).
  double generator_sigma = 0.03;
  /// Parallel lanes for the MC population (0 = hardware concurrency,
  /// 1 = serial). Every sample derives its RNG from (seed, sample), so the
  /// result is bit-identical at any setting.
  int threads = 1;
  /// Fire to abandon the sweep mid-flight (raises exec::CancelledError).
  exec::CancelToken cancel;
  /// Resilience policy: quarantine, budgets, checkpoint/resume, fault
  /// injection. The default is a no-op (fail-fast, pre-resil behaviour).
  resil::SweepPolicy resil;
};

/// One coverage curve per multiplier over the resistance sweep.
struct CoverageResult {
  std::vector<double> resistances;
  std::vector<double> multipliers;
  /// coverage[m][r]: fraction detected for multiplier m at resistance r.
  /// With quarantine on, each column's denominator is the number of VALID
  /// samples at that resistance (samples minus quarantined).
  std::vector<std::vector<double>> coverage;
  std::size_t simulations = 0;  ///< valid electrical measurements
  /// Samples dropped by quarantine (empty in strict mode). Deterministic:
  /// the same seed and fault plan yield the same report at any thread count.
  resil::QuarantineReport quarantine;
  [[nodiscard]] std::size_t n_quarantined() const { return quarantine.size(); }
};

/// DF-testing coverage: the applied clock is multiplier * T0.
[[nodiscard]] CoverageResult run_delay_coverage(const PathFactory& factory,
                                                const DelayTestCalibration& cal,
                                                const CoverageOptions& options);

/// Pulse-testing coverage: the applied sensing threshold is
/// multiplier * w_th, with the calibrated w_in injected.
[[nodiscard]] CoverageResult run_pulse_coverage(const PathFactory& factory,
                                                const PulseTestCalibration& cal,
                                                const CoverageOptions& options);

}  // namespace ppd::core
