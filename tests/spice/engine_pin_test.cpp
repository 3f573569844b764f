// Bit pins of the transient engine. run_transient on the 3-inverter path
// with an external resistive open (the coverage tests' ROP fixture) in four
// configurations — fixed-step TRAP and BE and both adaptive step controls —
// must reproduce exactly the step counts and every recorded (t, v) sample
// bit for bit. The hash is FNV-1a over the samples' bit patterns, so any
// change to assembly order, factorization, bypass or step control that
// moves one ulp fails here. A transient on the paper's 7-gate path also
// factors exactly once per Newton iteration.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>

#include "ppd/cache/hash.hpp"
#include "ppd/core/measure.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/spice/analysis.hpp"

namespace ppd::spice {
namespace {

core::PathFactory rop_factory() {
  core::PathFactory f;
  f.options.kinds.assign(3, cells::GateKind::kInv);
  faults::PathFaultSpec spec;
  spec.kind = faults::FaultKind::kExternalRopOutput;
  spec.stage = 1;
  f.fault = spec;
  return f;
}

TransientOptions base_options() {
  TransientOptions opt;
  opt.t_stop = 1.5e-9;
  opt.dt = 2e-12;
  return opt;  // every node recorded
}

struct Pin {
  std::size_t steps;
  std::size_t newton_iterations;
  std::size_t rejected_steps;
  std::uint64_t hash;
};

std::uint64_t sample_hash(const TransientResult& r) {
  cache::Hasher h;
  for (std::size_t n = 1; n < r.node_waves.size(); ++n) {
    if (!r.probed[n]) continue;
    h.u64(n);
    const wave::Waveform& w = r.node_waves[n];
    for (std::size_t i = 0; i < w.size(); ++i) {
      h.f64(w.time(i));
      h.f64(w.value(i));
    }
  }
  return h.value();
}

void expect_pinned(const TransientOptions& opt, const Pin& pin) {
  core::PathInstance inst = core::make_instance(rop_factory(), 8e3, nullptr);
  inst.path.drive_pulse(/*positive=*/true, /*width=*/0.3e-9,
                        /*t_launch=*/0.2e-9);
  const TransientResult r = run_transient(inst.path.netlist().circuit(), opt);
  EXPECT_EQ(r.steps, pin.steps);
  EXPECT_EQ(r.newton_iterations, pin.newton_iterations);
  EXPECT_EQ(r.rejected_steps, pin.rejected_steps);
  const std::uint64_t hash = sample_hash(r);
  EXPECT_EQ(hash, pin.hash) << "sample hash 0x" << std::hex << hash;
}

TEST(EnginePin, FixedStepTrapezoidal) {
  expect_pinned(base_options(), {750, 1607, 0, 0xf45b82ed80fb097aull});
}

TEST(EnginePin, FixedStepBackwardEuler) {
  TransientOptions opt = base_options();
  opt.integrator = Integrator::kBackwardEuler;
  expect_pinned(opt, {750, 1677, 0, 0x401a435909b5e774ull});
}

TEST(EnginePin, AdaptiveIterationCount) {
  TransientOptions opt = base_options();
  opt.adaptive = true;
  opt.step_control = StepControl::kIterationCount;
  expect_pinned(opt, {79, 226, 0, 0x707cf8d09c3efaadull});
}

TEST(EnginePin, AdaptiveLte) {
  TransientOptions opt = base_options();
  opt.adaptive = true;
  opt.step_control = StepControl::kLte;
  expect_pinned(opt, {408, 1168, 48, 0xa80e1169490b1183ull});
}

TEST(EnginePin, SevenGatePathFactorsOncePerNewtonIteration) {
  core::PathFactory f;
  f.options = cells::seven_gate_path();
  core::PathInstance inst = core::make_instance(f, 0.0, nullptr);
  inst.path.drive_pulse(/*positive=*/true, /*width=*/0.3e-9,
                        /*t_launch=*/0.2e-9);
  TransientOptions opt = base_options();
  opt.adaptive = true;

  const auto factors = [] {
    return obs::counter("spice.lu.pattern_factors").value() +
           obs::counter("spice.lu.full_factors").value();
  };
  ASSERT_TRUE(obs::metrics_enabled());
  const std::uint64_t factors0 = factors();
  const TransientResult r = run_transient(inst.path.netlist().circuit(), opt);
  EXPECT_GT(r.newton_iterations, r.steps);
  EXPECT_EQ(factors() - factors0, r.newton_iterations);
}

}  // namespace
}  // namespace ppd::spice
