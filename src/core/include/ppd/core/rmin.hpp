// Minimal detectable resistance (paper Sect. 5, Fig. 11): for a calibrated
// (w_in, w_th) pair and a fault site, the smallest defect resistance the
// pulse method detects across the whole Monte-Carlo population.
#pragma once

#include <cstdint>

#include "ppd/core/pulse_test.hpp"
#include "ppd/exec/cancel.hpp"
#include "ppd/resil/sweep_guard.hpp"

namespace ppd::core {

struct RminOptions {
  int samples = 20;
  std::uint64_t seed = 1;
  mc::VariationModel variation;
  SimSettings sim;
  double r_lo = 100.0;       ///< search bracket [ohm]
  double r_hi = 100e3;
  int bisection_steps = 10;  ///< ~3 decades / 2^10 => <1% resolution
  /// Required detected fraction of the MC population (1.0 = every instance).
  double target_coverage = 1.0;
  /// Parallel lanes for each bisection step's MC population (0 = hardware
  /// concurrency, 1 = serial); bit-identical at any setting. The bisection
  /// itself stays sequential — each step depends on the previous verdict.
  int threads = 1;
  /// Fire to abandon the search mid-flight (raises exec::CancelledError).
  exec::CancelToken cancel;
  /// Resilience policy for each bisection step's MC sweep. Checkpointing is
  /// ignored here (every step is its own short sweep); quarantine, the
  /// per-solve budget and fault injection apply.
  resil::SweepPolicy resil;
};

struct RminResult {
  bool detectable = false;  ///< false when even r_hi is not detected
  double r_min = 0.0;       ///< valid when detectable
  std::size_t simulations = 0;
  /// Samples quarantined across every bisection step (0 in strict mode).
  std::size_t n_quarantined = 0;
};

/// Bisection over R assuming detection is monotone in R (true for ROPs: a
/// larger series resistance dampens the pulse more). The factory's fault
/// spec must be set.
[[nodiscard]] RminResult find_r_min(const PathFactory& factory,
                                    const PulseTestCalibration& cal,
                                    const RminOptions& options);

}  // namespace ppd::core
