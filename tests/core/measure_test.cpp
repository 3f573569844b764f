#include "ppd/core/measure.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/spice/analysis.hpp"
#include "ppd/util/error.hpp"
#include "ppd/wave/waveform.hpp"

namespace ppd::core {
namespace {

PathFactory small_factory(std::size_t n = 3) {
  PathFactory f;
  f.options.kinds.assign(n, cells::GateKind::kInv);
  return f;
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(1.0, 3.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_DOUBLE_EQ(v.back(), 3.0);
  EXPECT_DOUBLE_EQ(v[2], 2.0);
  EXPECT_THROW(static_cast<void>(linspace(1.0, 3.0, 1)), PreconditionError);
  EXPECT_THROW(static_cast<void>(linspace(3.0, 1.0, 5)), PreconditionError);
}

TEST(Logspace, EndpointsAndGrowth) {
  const auto v = logspace(1.0, 100.0, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_NEAR(v[2], 100.0, 1e-9);
  EXPECT_THROW(static_cast<void>(logspace(0.0, 1.0, 3)), PreconditionError);
}

TEST(SampleRng, DeterministicPerIndex) {
  mc::Rng a = sample_rng(7, 3);
  mc::Rng b = sample_rng(7, 3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  mc::Rng c = sample_rng(7, 4);
  EXPECT_NE(sample_rng(7, 3).next_u64(), c.next_u64());
}

TEST(MakeInstance, FaultFreeHasNoInjectedHandle) {
  const PathFactory f = small_factory();
  PathInstance inst = make_instance(f, 0.0, nullptr);
  EXPECT_FALSE(inst.fault.has_value());
  EXPECT_EQ(inst.path.length(), 3u);
}

TEST(MakeInstance, FaultSpecInjectsWhenResistancePositive) {
  PathFactory f = small_factory();
  faults::PathFaultSpec spec;
  spec.kind = faults::FaultKind::kExternalRopOutput;
  spec.stage = 1;
  f.fault = spec;
  PathInstance faulty = make_instance(f, 5e3, nullptr);
  ASSERT_TRUE(faulty.fault.has_value());
  // Zero resistance still builds fault-free even with a spec present.
  PathInstance clean = make_instance(f, 0.0, nullptr);
  EXPECT_FALSE(clean.fault.has_value());
}

TEST(PathDelay, PositiveAndPolarityConsistent) {
  const PathFactory f = small_factory();
  SimSettings sim;
  PathInstance a = make_instance(f, 0.0, nullptr);
  const auto d_rise = path_delay(a.path, true, sim);
  PathInstance b = make_instance(f, 0.0, nullptr);
  const auto d_fall = path_delay(b.path, false, sim);
  ASSERT_TRUE(d_rise.has_value());
  ASSERT_TRUE(d_fall.has_value());
  EXPECT_GT(*d_rise, 0.0);
  EXPECT_GT(*d_fall, 0.0);
  EXPECT_LT(*d_rise, 1e-9);
  EXPECT_LT(*d_fall, 1e-9);
}

TEST(OutputPulseWidth, BothKindsPropagateWidePulses) {
  const PathFactory f = small_factory();
  SimSettings sim;
  PathInstance a = make_instance(f, 0.0, nullptr);
  const auto w_h = output_pulse_width(a.path, PulseKind::kH, 0.5e-9, sim);
  PathInstance b = make_instance(f, 0.0, nullptr);
  const auto w_l = output_pulse_width(b.path, PulseKind::kL, 0.5e-9, sim);
  ASSERT_TRUE(w_h.has_value());
  ASSERT_TRUE(w_l.has_value());
  EXPECT_NEAR(*w_h, 0.5e-9, 0.2e-9);
  EXPECT_NEAR(*w_l, 0.5e-9, 0.2e-9);
}

TEST(MakeTransientOptions, OneBudgetCoversBothPhases) {
  // Regression pin for the double-budget bug: setting sim.budget_seconds
  // used to grant the OP phase a second full-length deadline on top of the
  // transient's, letting a "budgeted" solve run for 2x its budget. The OP
  // now spends from the transient's own deadline (op.budget_seconds 0).
  const PathFactory f = small_factory();
  PathInstance inst = make_instance(f, 0.0, nullptr);
  SimSettings sim;
  sim.budget_seconds = 1.5;
  const spice::TransientOptions opt =
      make_transient_options(sim, 1e-9, inst.path);
  EXPECT_DOUBLE_EQ(opt.budget_seconds, 1.5);
  EXPECT_DOUBLE_EQ(opt.op.budget_seconds, 0.0);
  EXPECT_DOUBLE_EQ(opt.t_stop, 1e-9);
  ASSERT_EQ(opt.probe.size(), 2u);
}

TEST(MakeTransientOptions, TransientBudgetGovernsTheOpPhase) {
  // With an (effectively pre-expired) transient budget, the FIRST phase to
  // notice must be the operating point — proof that it draws from the
  // shared deadline rather than owning an unlimited one. Warm-starting is
  // switched off so a cached OP cannot skip the phase under test.
  const PathFactory f = small_factory();
  PathInstance inst = make_instance(f, 0.0, nullptr);
  inst.path.drive_pulse(true, 0.3e-9, 0.3e-9);
  SimSettings sim;
  sim.budget_seconds = 1e-9;
  const bool was_enabled = cache::cache_enabled();
  cache::set_cache_enabled(false);
  try {
    static_cast<void>(spice::run_transient(
        inst.path.netlist().circuit(),
        make_transient_options(sim, 1e-9, inst.path)));
    cache::set_cache_enabled(was_enabled);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    cache::set_cache_enabled(was_enabled);
    EXPECT_NE(std::string(e.what()).find("operating point"), std::string::npos)
        << e.what();
  }
}

TEST(MakeTransientOptions, BudgetBoundMeasurementFinishesNearBudget) {
  // A deliberately step-starved transient (fixed 1 fs steps) cannot finish;
  // it must abort within ~1x the budget, not the historical 2x.
  const PathFactory f = small_factory();
  PathInstance inst = make_instance(f, 0.0, nullptr);
  SimSettings sim;
  sim.dt = 1e-15;
  sim.adaptive = false;
  sim.budget_seconds = 0.3;
  const bool was_enabled = cache::cache_enabled();
  cache::set_cache_enabled(false);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      static_cast<void>(output_pulse_width(inst.path, PulseKind::kH, 0.3e-9, sim)),
      TimeoutError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cache::set_cache_enabled(was_enabled);
  EXPECT_LT(elapsed, 3.0 * sim.budget_seconds);
}

TEST(TransferFunction, SolverFailureIsFlaggedNotZero) {
  // Force every Newton solve to report non-convergence: each grid point's
  // measurement fails. The curve must mark those points failed with NaN —
  // not record w_out = 0, which means "perfectly dampened pulse".
  const PathFactory f = small_factory();
  SimSettings sim;
  PathInstance inst = make_instance(f, 0.0, nullptr);
  resil::FaultPlan plan;
  plan.seed = 1;
  plan.p_newton_nonconverge = 1.0;
  const resil::FaultScope scope(plan, 0);
  const auto grid = linspace(0.2e-9, 0.4e-9, 3);
  const TransferCurve c = transfer_function(inst.path, PulseKind::kH, grid, sim);
  ASSERT_EQ(c.w_out.size(), grid.size());
  ASSERT_EQ(c.failed.size(), grid.size());
  EXPECT_EQ(c.n_failed, grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(c.failed[i]) << "point " << i;
    EXPECT_TRUE(std::isnan(c.w_out[i])) << "point " << i;
  }
}

TEST(TransferFunction, HasThreeRegions) {
  // Fig. 10 structure: zeros, then a sub-linear climb, then slope ~1.
  const PathFactory f = small_factory(7);
  SimSettings sim;
  PathInstance inst = make_instance(f, 0.0, nullptr);
  const auto grid = linspace(0.06e-9, 0.6e-9, 12);
  const TransferCurve c = transfer_function(inst.path, PulseKind::kH, grid, sim);
  ASSERT_EQ(c.w_out.size(), grid.size());
  ASSERT_EQ(c.failed.size(), grid.size());
  EXPECT_EQ(c.n_failed, 0u);                // healthy path: no failed solves
  EXPECT_DOUBLE_EQ(c.w_out.front(), 0.0);   // region 1: dampened
  EXPECT_GT(c.w_out.back(), 0.4e-9);        // region 3 reached
  // Monotone non-decreasing.
  for (std::size_t i = 1; i < c.w_out.size(); ++i)
    EXPECT_GE(c.w_out[i] + 1e-12, c.w_out[i - 1]);
  // Final segment slope ~1.
  const double slope = (c.w_out.back() - c.w_out[c.w_out.size() - 2]) /
                       (grid.back() - grid[grid.size() - 2]);
  EXPECT_NEAR(slope, 1.0, 0.15);
}

// ---------------------------------------------------------------------------
// Early stop: a measurement transient ends at the step that decides its
// answer. The stopped waveform must be a bitwise prefix of the full sweep's
// and the measured value must carry the same bits, under every stepping mode.
// ---------------------------------------------------------------------------

/// Disables the process-wide solve cache for one test, so every measurement
/// below really integrates.
class CacheOff {
 public:
  CacheOff() : was_(cache::cache_enabled()) { cache::set_cache_enabled(false); }
  ~CacheOff() { cache::set_cache_enabled(was_); }
  CacheOff(const CacheOff&) = delete;
  CacheOff& operator=(const CacheOff&) = delete;

 private:
  bool was_;
};

struct Stepping {
  std::string name;
  SimSettings sim;
};

std::vector<Stepping> stepping_modes() {
  SimSettings trap;
  trap.adaptive = false;
  SimSettings be = trap;
  be.integrator = spice::Integrator::kBackwardEuler;
  return {{"fixed-trap", trap}, {"fixed-be", be}, {"adaptive", SimSettings{}}};
}

PathFactory rop_factory() {
  PathFactory f;
  f.options = cells::seven_gate_path();
  faults::PathFaultSpec spec;
  spec.kind = faults::FaultKind::kExternalRopOutput;
  spec.stage = 1;
  f.fault = spec;
  return f;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || same_bits(*a, *b));
}

void expect_prefix(const wave::Waveform& part, const wave::Waveform& full,
                   const std::string& what) {
  ASSERT_LE(part.size(), full.size()) << what;
  for (std::size_t i = 0; i < part.size(); ++i) {
    ASSERT_TRUE(same_bits(part.time(i), full.time(i))) << what << " t[" << i << "]";
    ASSERT_TRUE(same_bits(part.value(i), full.value(i))) << what << " v[" << i << "]";
  }
}

using Measure = std::function<std::optional<double>(const spice::TransientResult&)>;

/// Runs the driven path's transient in full and with `measure` as its stop
/// predicate, and checks the prefix property. `production` re-measures the
/// same instance through the library entry point (which stops early).
void check_early_stop(const PathFactory& factory, double fault_ohms,
                      const SimSettings& sim, double t_stop,
                      const std::function<void(cells::Path&)>& drive,
                      const Measure& measure,
                      const std::function<std::optional<double>(cells::Path&)>&
                          production,
                      bool expect_decided, const std::string& what) {
  PathInstance full_inst = make_instance(factory, fault_ohms, nullptr);
  PathInstance stop_inst = make_instance(factory, fault_ohms, nullptr);
  drive(full_inst.path);
  drive(stop_inst.path);
  const auto full = spice::run_transient(
      full_inst.path.netlist().circuit(),
      make_transient_options(sim, t_stop, full_inst.path));
  const auto stopped = spice::run_transient(
      stop_inst.path.netlist().circuit(),
      make_transient_options(sim, t_stop, stop_inst.path),
      [&](const spice::TransientResult& r) { return measure(r).has_value(); });

  const cells::Path& path = full_inst.path;
  expect_prefix(stopped.wave(path.input()), full.wave(path.input()),
                what + " input");
  expect_prefix(stopped.wave(path.output()), full.wave(path.output()),
                what + " output");

  const auto value = measure(full);
  EXPECT_EQ(value.has_value(), expect_decided) << what;
  EXPECT_TRUE(same_bits(measure(stopped), value)) << what;
  PathInstance lib_inst = make_instance(factory, fault_ohms, nullptr);
  EXPECT_TRUE(same_bits(production(lib_inst.path), value)) << what;
  if (value.has_value()) {
    EXPECT_LT(stopped.steps, full.steps) << what;
  } else {
    EXPECT_EQ(stopped.steps, full.steps) << what;
    EXPECT_EQ(stopped.wave(path.output()).size(),
              full.wave(path.output()).size())
        << what;
  }
}

void check_pulse(double fault_ohms, bool expect_survives) {
  const CacheOff cache_off;
  const PathFactory f = rop_factory();
  constexpr double kWin = 0.25e-9;
  for (const Stepping& mode : stepping_modes()) {
    const SimSettings& sim = mode.sim;
    PathInstance probe = make_instance(f, fault_ohms, nullptr);
    const double half = probe.path.netlist().process().vdd / 2.0;
    const bool positive_out = probe.path.same_polarity();
    check_early_stop(
        f, fault_ohms, sim, sim.t_launch + kWin + sim.t_tail,
        [&](cells::Path& p) { p.drive_pulse(true, kWin, sim.t_launch); },
        [&](const spice::TransientResult& r) {
          return wave::pulse_width(r.wave(probe.path.output()), half,
                                   positive_out);
        },
        [&](cells::Path& p) {
          return output_pulse_width(p, PulseKind::kH, kWin, sim);
        },
        expect_survives, mode.name + " R=" + std::to_string(fault_ohms));
  }
}

void check_delay(double fault_ohms, bool expect_switches) {
  const CacheOff cache_off;
  const PathFactory f = rop_factory();
  for (const Stepping& mode : stepping_modes()) {
    const SimSettings& sim = mode.sim;
    PathInstance probe = make_instance(f, fault_ohms, nullptr);
    const double half = probe.path.netlist().process().vdd / 2.0;
    const bool out_rising = probe.path.same_polarity();
    check_early_stop(
        f, fault_ohms, sim, sim.t_launch + sim.t_tail,
        [&](cells::Path& p) { p.drive_transition(true, sim.t_launch); },
        [&](const spice::TransientResult& r) {
          return wave::propagation_delay(
              r.wave(probe.path.input()), r.wave(probe.path.output()), half,
              wave::Edge::kRise,
              out_rising ? wave::Edge::kRise : wave::Edge::kFall);
        },
        [&](cells::Path& p) { return path_delay(p, true, sim); },
        expect_switches, mode.name + " R=" + std::to_string(fault_ohms));
  }
}

TEST(EarlyStop, SurvivingPulseStopsAtTrailingEdge) { check_pulse(1e3, true); }

TEST(EarlyStop, DampenedPulseRunsToTheEnd) { check_pulse(64e3, false); }

TEST(EarlyStop, FaultFreePulseStopsAtTrailingEdge) { check_pulse(0.0, true); }

TEST(EarlyStop, SwitchingPathDelayStopsAtOutputEdge) { check_delay(0.0, true); }

TEST(EarlyStop, NeverSwitchingPathDelayRunsToTheEnd) {
  // A 10 MOhm open leaves the output far short of VDD/2 inside the window.
  check_delay(10e6, false);
}

// ---------------------------------------------------------------------------
// Metamorphic: a wider input pulse never comes out narrower. Checked over
// the `transfer` query's default Fig. 10 grid on the nominal 7-gate path and
// on three seeded Monte-Carlo instances of it.
// ---------------------------------------------------------------------------

void expect_monotone_transfer(cells::VariationSource* variation,
                              const std::string& what) {
  PathFactory f;
  f.options = cells::seven_gate_path();
  PathInstance inst = make_instance(f, 0.0, variation);
  const auto grid = linspace(0.08e-9, 0.8e-9, 15);
  const TransferCurve c = transfer_function(inst.path, PulseKind::kH, grid, {});
  ASSERT_EQ(c.n_failed, 0u) << what;
  for (std::size_t i = 1; i < c.w_out.size(); ++i)
    EXPECT_GE(c.w_out[i], c.w_out[i - 1])
        << what << ": w_in " << grid[i - 1] << " -> " << grid[i];
}

TEST(TransferMetamorphic, WidthOutNonDecreasingNominal) {
  expect_monotone_transfer(nullptr, "nominal");
}

TEST(TransferMetamorphic, WidthOutNonDecreasingMonteCarlo) {
  const auto model = mc::VariationModel::uniform_sigma(0.05);
  for (std::size_t s = 0; s < 3; ++s) {
    mc::GaussianVariationSource var(model, sample_rng(2007, s));
    expect_monotone_transfer(&var, "sample " + std::to_string(s));
  }
}

}  // namespace
}  // namespace ppd::core
