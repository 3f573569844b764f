#include "ppd/core/pulse_test.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {
namespace {

PathFactory small_factory() {
  PathFactory f;
  f.options.kinds.assign(3, cells::GateKind::kInv);
  return f;
}

PulseCalibrationOptions quick_options() {
  PulseCalibrationOptions o;
  o.samples = 5;
  o.seed = 13;
  o.w_in_grid = linspace(0.10e-9, 0.60e-9, 11);
  return o;
}

/// Cache off and metrics on for one test, so `spice.transient.runs` counts
/// every measurement the code under test asks for.
class CountEveryTransient {
 public:
  CountEveryTransient()
      : cache_was_(cache::cache_enabled()), metrics_was_(obs::metrics_enabled()) {
    cache::set_cache_enabled(false);
    obs::set_metrics_enabled(true);
  }
  ~CountEveryTransient() {
    cache::set_cache_enabled(cache_was_);
    obs::set_metrics_enabled(metrics_was_);
  }
  CountEveryTransient(const CountEveryTransient&) = delete;
  CountEveryTransient& operator=(const CountEveryTransient&) = delete;

 private:
  bool cache_was_;
  bool metrics_was_;
};

std::uint64_t transient_runs() {
  return obs::counter("spice.transient.runs").value();
}

/// Curve points served through the onset rule's accessor, recording every
/// index the rule asks for.
struct RecordingCurve {
  const TransferCurve& curve;
  std::vector<std::size_t> reads;

  std::optional<std::size_t> onset(double slope_tolerance) {
    return asymptotic_onset(
        curve.w_in,
        [this](std::size_t i) {
          reads.push_back(i);
          return curve.w_out[i];
        },
        slope_tolerance);
  }
};

TEST(PulseDetects, PredicateLogic) {
  EXPECT_TRUE(pulse_detects(std::nullopt, 0.1e-9));       // dampened
  EXPECT_TRUE(pulse_detects(0.05e-9, 0.1e-9));            // under threshold
  EXPECT_FALSE(pulse_detects(0.2e-9, 0.1e-9));            // clean pulse
}

TEST(AsymptoticOnset, SyntheticCurve) {
  TransferCurve c;
  c.w_in = {1.0, 2.0, 3.0, 4.0, 5.0};
  c.w_out = {0.0, 0.0, 0.5, 1.4, 2.4};  // slopes: 0, 0.5, 0.9, 1.0
  const auto onset = asymptotic_onset(c, 0.15);  // band [0.85, 1.15]
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(*onset, 2u);
  // A tighter band moves the onset right.
  const auto strict = asymptotic_onset(c, 0.05);
  ASSERT_TRUE(strict.has_value());
  EXPECT_EQ(*strict, 3u);
}

TEST(AsymptoticOnset, SuperLinearAttenuationRegionExcluded) {
  // The attenuation region approaches from above (slopes > 1): only the
  // final slope-1 stretch qualifies.
  TransferCurve c;
  c.w_in = {1.0, 2.0, 3.0, 4.0};
  c.w_out = {0.0, 1.8, 2.9, 3.9};  // slopes: 1.8, 1.1, 1.0
  const auto onset = asymptotic_onset(c, 0.12);
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(*onset, 1u);
}

TEST(AsymptoticOnset, NeverStraightensReturnsNullopt) {
  TransferCurve c;
  c.w_in = {1.0, 2.0, 3.0};
  c.w_out = {0.0, 0.1, 0.3};  // slopes 0.1, 0.2: never near 1
  EXPECT_FALSE(asymptotic_onset(c, 0.3).has_value());
}

TEST(AsymptoticOnset, FullyDampenedPointExcluded) {
  // Perfect slope but w_out = 0 at the candidate point: not usable.
  TransferCurve c;
  c.w_in = {1.0, 2.0};
  c.w_out = {0.0, 1.0};
  const auto onset = asymptotic_onset(c, 0.1);
  ASSERT_FALSE(onset.has_value());
}

TEST(AsymptoticOnset, RejectsBadTolerance) {
  TransferCurve c;
  c.w_in = {1.0, 2.0};
  c.w_out = {0.5, 1.5};
  EXPECT_THROW(static_cast<void>(asymptotic_onset(c, 0.0)), PreconditionError);
  EXPECT_THROW(static_cast<void>(asymptotic_onset(c, 1.0)), PreconditionError);
}

TEST(AsymptoticOnset, RejectsBadGridBeforeReadingAnyPoint) {
  TransferCurve c;
  c.w_in = {1.0, 2.0, 2.0, 3.0};
  c.w_out = {0.0, 1.0, 1.0, 2.0};
  RecordingCurve rec{c, {}};
  EXPECT_THROW(static_cast<void>(rec.onset(0.1)), PreconditionError);
  EXPECT_THROW(static_cast<void>(rec.onset(0.0)), PreconditionError);
  EXPECT_TRUE(rec.reads.empty());
}

// Seeded synthetic curves: a dampened floor, a super-linear attenuation
// region and a noisy asymptote, sprinkled with failed (NaN) and dampened
// (0) points, plus pure-noise curves that never straighten and short ones.
// The accessor form must return the curve form's onset, reading each index
// once, from n-1 down to the lower point of the first out-of-band segment.
TEST(AsymptoticOnset, AccessorWalkReadsOnlyDownToTheFirstOutOfBandSegment) {
  std::mt19937_64 gen(2007);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double tol = 0.12;
  int onsets_found = 0, walks_stopped = 0, stopped_by_nan = 0,
      stopped_by_zero = 0, short_curves = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = static_cast<std::size_t>(gen() % 16);
    TransferCurve c;
    double w = 0.05 + 0.1 * u(gen);
    const double knee = 0.2 + 0.6 * u(gen);
    const bool noise_only = trial % 7 == 0;
    for (std::size_t i = 0; i < n; ++i) {
      w += 0.02 + 0.08 * u(gen);
      c.w_in.push_back(w);
      double out = 0.0;
      if (noise_only)
        out = 2.0 * u(gen);
      else if (w > 0.5 * knee)
        out = w < knee ? 1.6 * (w - 0.5 * knee)
                       : 0.8 * knee + (w - knee) * (1.0 + 0.1 * (u(gen) - 0.5));
      const double r = u(gen);
      if (r < 0.05) out = std::numeric_limits<double>::quiet_NaN();
      else if (r < 0.10) out = 0.0;
      c.w_out.push_back(out);
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", n " << n);
    const auto eager = asymptotic_onset(c, tol);
    RecordingCurve rec{c, {}};
    const auto lazy = rec.onset(tol);
    ASSERT_EQ(lazy, eager);
    if (n < 2) {
      EXPECT_TRUE(rec.reads.empty());
      ++short_curves;
      continue;
    }
    // The walk stops at segment onset-1 (or n-2 without an onset); it runs
    // to index 0 only when the onset is the first point.
    const std::size_t last =
        !lazy.has_value() ? n - 2 : (*lazy == 0 ? 0 : *lazy - 1);
    ASSERT_EQ(rec.reads.size(), n - last);
    for (std::size_t k = 0; k < rec.reads.size(); ++k)
      EXPECT_EQ(rec.reads[k], n - 1 - k);
    if (lazy.has_value()) ++onsets_found;
    if (!lazy.has_value() || *lazy > 0) {
      ++walks_stopped;
      const double slope = (c.w_out[last + 1] - c.w_out[last]) /
                           (c.w_in[last + 1] - c.w_in[last]);
      EXPECT_FALSE(std::abs(slope - 1.0) <= tol && c.w_out[last] > 0.0)
          << "walk stopped at an in-band segment";
      if (std::isnan(c.w_out[last])) ++stopped_by_nan;
      if (c.w_out[last] == 0.0) ++stopped_by_zero;
    }
  }
  // The population exercises every way a walk ends.
  EXPECT_GT(onsets_found, 50);
  EXPECT_GT(walks_stopped, 50);
  EXPECT_GT(stopped_by_nan, 5);
  EXPECT_GT(stopped_by_zero, 5);
  EXPECT_GT(short_curves, 5);
}

TEST(CalibratePulseTest, ProducesFeasibleConfiguration) {
  const PathFactory f = small_factory();
  const PulseCalibrationOptions opt = quick_options();
  const PulseTestCalibration cal = calibrate_pulse_test(f, opt);
  EXPECT_GE(cal.w_th, opt.w_th_floor);
  EXPECT_GT(cal.w_in, 0.0);
  // Threshold honours the sensing guard against the MC minimum.
  EXPECT_NEAR(cal.w_th * (1.0 + opt.sensor_guard), cal.min_fault_free_w_out,
              1e-15);
}

/// Eager reference calibration: the full nominal curve first, then the
/// onset rule over it, then the same Monte-Carlo loop as the library.
struct EagerCalibration {
  PulseTestCalibration cal;
  std::size_t points_read = 0;  ///< nominal points the onset rule read
  std::uint64_t mc_runs = 0;    ///< Monte-Carlo measurements
};

EagerCalibration eager_calibration(const PathFactory& f,
                                   const PulseCalibrationOptions& opt) {
  EagerCalibration ref;
  const std::vector<double> grid = linspace(0.10e-9, 0.80e-9, 15);
  PathInstance nominal = make_instance(f, 0.0, nullptr);
  const TransferCurve curve =
      transfer_function(nominal.path, opt.kind, grid, opt.sim);
  RecordingCurve rec{curve, {}};
  const auto onset = rec.onset(opt.slope_tolerance);
  ref.points_read = rec.reads.size();
  if (!onset.has_value()) ADD_FAILURE() << "no asymptotic onset";
  const double derate = 1.0 - opt.generator_guard_sigmas * opt.generator_sigma;
  for (std::size_t c = onset.value_or(grid.size()); c < grid.size(); ++c) {
    double min_w_out = std::numeric_limits<double>::infinity();
    bool all_propagate = true;
    for (int s = 0; s < opt.samples; ++s) {
      mc::Rng rng = sample_rng(opt.seed, static_cast<std::size_t>(s));
      mc::GaussianVariationSource var(opt.variation, rng);
      PathInstance inst = make_instance(f, 0.0, &var);
      ++ref.mc_runs;
      const auto w_out =
          output_pulse_width(inst.path, opt.kind, grid[c] * derate, opt.sim);
      if (!w_out.has_value()) {
        all_propagate = false;
        break;
      }
      min_w_out = std::min(min_w_out, *w_out);
    }
    if (!all_propagate) continue;
    const double w_th = min_w_out / (1.0 + opt.sensor_guard);
    if (w_th < opt.w_th_floor) continue;
    ref.cal.w_in = grid[c];
    ref.cal.w_th = w_th;
    ref.cal.min_fault_free_w_out = min_w_out;
    return ref;
  }
  ADD_FAILURE() << "no feasible candidate";
  return ref;
}

// The lazy walk measures only the points the onset rule reads and lands on
// the eager calibration's bits, on the paper's 7-gate path and on a long
// mixed path whose walk skips most of the dampened grid.
TEST(CalibratePulseTest, LazyWalkMatchesEagerReference) {
  using cells::GateKind;
  const std::vector<std::vector<GateKind>> paths = {
      cells::seven_gate_path().kinds,
      {GateKind::kNand2, GateKind::kNor3, GateKind::kNand3, GateKind::kNand3,
       GateKind::kNor2, GateKind::kNor2, GateKind::kNand2, GateKind::kNand2}};
  const CountEveryTransient counting;
  for (const auto& kinds : paths) {
    SCOPED_TRACE(::testing::Message() << kinds.size() << "-gate path");
    PathFactory f;
    f.options.kinds = kinds;
    PulseCalibrationOptions opt;
    opt.samples = 4;
    const EagerCalibration ref = eager_calibration(f, opt);

    const std::uint64_t before = transient_runs();
    const PulseTestCalibration cal = calibrate_pulse_test(f, opt);
    const std::uint64_t runs = transient_runs() - before;

    EXPECT_EQ(cal.w_in, ref.cal.w_in);
    EXPECT_EQ(cal.w_th, ref.cal.w_th);
    EXPECT_EQ(cal.min_fault_free_w_out, ref.cal.min_fault_free_w_out);
    EXPECT_EQ(runs, ref.points_read + ref.mc_runs);
    EXPECT_LT(ref.points_read, 15u) << "the walk should skip dampened points";
  }
}

// Every option is validated before the first transient. Each bad value below
// sits where the lazy walk would never look (the bottom of the grid) or is
// read only after the nominal sweep, so a late check would run transients or
// miss it entirely.
TEST(CalibratePulseTest, InvalidOptionsThrowBeforeAnyTransient) {
  const PathFactory f = small_factory();
  std::vector<std::pair<const char*, PulseCalibrationOptions>> cases;
  const auto with = [&](const char* name, auto mutate) {
    PulseCalibrationOptions o = quick_options();
    mutate(o);
    cases.emplace_back(name, o);
  };
  with("samples 0", [](auto& o) { o.samples = 0; });
  with("sensor guard < 0", [](auto& o) { o.sensor_guard = -0.1; });
  with("sensor guard 1", [](auto& o) { o.sensor_guard = 1.0; });
  with("slope tolerance 0", [](auto& o) { o.slope_tolerance = 0.0; });
  with("slope tolerance 1", [](auto& o) { o.slope_tolerance = 1.0; });
  with("slope tolerance nan", [](auto& o) {
    o.slope_tolerance = std::numeric_limits<double>::quiet_NaN();
  });
  with("grid repeats a point", [](auto& o) { o.w_in_grid[1] = o.w_in_grid[0]; });
  with("grid decreases", [](auto& o) { std::swap(o.w_in_grid[0], o.w_in_grid[1]); });
  with("grid value 0", [](auto& o) { o.w_in_grid[0] = 0.0; });
  with("grid value < 0", [](auto& o) { o.w_in_grid[0] = -0.1e-9; });
  with("generator derate <= 0", [](auto& o) { o.generator_sigma = 0.4; });

  const CountEveryTransient counting;
  for (const auto& [name, opt] : cases) {
    SCOPED_TRACE(name);
    const std::uint64_t before = transient_runs();
    EXPECT_THROW(static_cast<void>(calibrate_pulse_test(f, opt)),
                 PreconditionError);
    EXPECT_EQ(transient_runs() - before, 0u);
  }
}

TEST(CalibratePulseTest, NoFalsePositivesByConstruction) {
  const PathFactory f = small_factory();
  const PulseCalibrationOptions opt = quick_options();
  const PulseTestCalibration cal = calibrate_pulse_test(f, opt);
  // Even a sensor running 10% hot never rejects a fault-free instance.
  const double hot_threshold = (1.0 + opt.sensor_guard) * cal.w_th;
  for (int s = 0; s < opt.samples; ++s) {
    mc::Rng rng = sample_rng(opt.seed, static_cast<std::size_t>(s));
    mc::GaussianVariationSource var(opt.variation, rng);
    PathInstance inst = make_instance(f, 0.0, &var);
    const auto w = output_pulse_width(inst.path, cal.kind, cal.w_in, opt.sim);
    EXPECT_FALSE(pulse_detects(w, hot_threshold))
        << "fault-free sample " << s << " rejected";
  }
}

TEST(CalibratePulseTest, InfeasibleGridThrows) {
  const PathFactory f = small_factory();
  PulseCalibrationOptions opt = quick_options();
  // Grid entirely inside the dampened region: no asymptotic onset.
  opt.w_in_grid = linspace(0.055e-9, 0.075e-9, 4);
  EXPECT_THROW(static_cast<void>(calibrate_pulse_test(f, opt)), NumericalError);
}

TEST(CalibratePulseTest, LKindAlsoCalibrates) {
  const PathFactory f = small_factory();
  PulseCalibrationOptions opt = quick_options();
  opt.kind = PulseKind::kL;
  const PulseTestCalibration cal = calibrate_pulse_test(f, opt);
  EXPECT_EQ(cal.kind, PulseKind::kL);
  EXPECT_GT(cal.w_th, 0.0);
}

}  // namespace
}  // namespace ppd::core
