// Linear-circuit validation against closed-form solutions: voltage divider,
// RC step response, RC discharge, and a 302-unknown RC ladder against
// reference samples; plus one factorization per Newton iteration inside a
// transient.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "ppd/obs/metrics.hpp"
#include "ppd/spice/analysis.hpp"
#include "ppd/spice/circuit.hpp"
#include "ppd/util/error.hpp"

namespace ppd::spice {
namespace {

TEST(Op, VoltageDivider) {
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId mid = c.node("mid");
  c.add_vsource("V1", vin, kGround, Dc{10.0});
  c.add_resistor("R1", vin, mid, 1e3);
  c.add_resistor("R2", mid, kGround, 3e3);
  const OpResult op = run_op(c);
  EXPECT_NEAR(op.voltage(vin), 10.0, 1e-9);
  // The universal gmin leak (1 nS) shifts resistive dividers by a few uV.
  EXPECT_NEAR(op.voltage(mid), 7.5, 1e-4);
}

TEST(Op, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("I1", n, kGround, Dc{1e-3});
  c.add_resistor("R1", n, kGround, 2e3);
  const OpResult op = run_op(c);
  EXPECT_NEAR(op.voltage(n), 2.0, 1e-4);
}

TEST(Op, SeriesVoltageSources) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("V1", a, kGround, Dc{1.0});
  c.add_vsource("V2", b, a, Dc{2.0});
  c.add_resistor("Rl", b, kGround, 1e3);
  const OpResult op = run_op(c);
  EXPECT_NEAR(op.voltage(b), 3.0, 1e-9);
}

TEST(Op, CapacitorIsOpenInDc) {
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId mid = c.node("mid");
  c.add_vsource("V1", vin, kGround, Dc{5.0});
  c.add_resistor("R1", vin, mid, 1e3);
  c.add_capacitor("C1", mid, kGround, 1e-12);
  const OpResult op = run_op(c);
  // No DC current: the node floats to the source value through R1.
  EXPECT_NEAR(op.voltage(mid), 5.0, 1e-3);
}

class RcStepResponse
    : public ::testing::TestWithParam<std::pair<Integrator, double>> {};

TEST_P(RcStepResponse, MatchesAnalyticExponential) {
  const auto [integrator, dt] = GetParam();
  // 1k / 1pF low-pass driven by a fast step: v(t) = V (1 - exp(-t/RC)).
  constexpr double kR = 1e3;
  constexpr double kC = 1e-12;
  constexpr double kV = 1.0;
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId out = c.node("out");
  Pulse p;
  p.v1 = 0.0;
  p.v2 = kV;
  p.delay = 0.0;
  p.rise = 1e-15;  // effectively instantaneous
  p.width = 1.0;
  c.add_vsource("V1", vin, kGround, p);
  c.add_resistor("R1", vin, out, kR);
  c.add_capacitor("C1", out, kGround, kC);

  TransientOptions opt;
  opt.t_stop = 5e-9;  // 5 tau
  opt.dt = dt;
  opt.integrator = integrator;
  const TransientResult res = run_transient(c, opt);
  const auto& w = res.wave(out);

  const double tol = integrator == Integrator::kTrapezoidal ? 2e-3 : 2e-2;
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = kV * (1.0 - std::exp(-t / (kR * kC)));
    EXPECT_NEAR(w.at(t), expected, tol * kV) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, RcStepResponse,
    ::testing::Values(std::pair{Integrator::kTrapezoidal, 1e-12},
                      std::pair{Integrator::kTrapezoidal, 5e-12},
                      std::pair{Integrator::kBackwardEuler, 1e-12},
                      std::pair{Integrator::kBackwardEuler, 5e-12}));

TEST(Transient, RcDischargeFromOp) {
  // Node pre-charged via the OP (source high at t<=0), then source falls.
  constexpr double kR = 2e3;
  constexpr double kC = 2e-12;
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId out = c.node("out");
  Pulse p;
  p.v1 = 1.0;
  p.v2 = 0.0;
  p.delay = 0.0;
  p.rise = 1e-15;
  p.width = 1.0;
  c.add_vsource("V1", vin, kGround, p);
  c.add_resistor("R1", vin, out, kR);
  c.add_capacitor("C1", out, kGround, kC);

  TransientOptions opt;
  opt.t_stop = 12e-9;
  opt.dt = 4e-12;
  const TransientResult res = run_transient(c, opt);
  const auto& w = res.wave("out");
  EXPECT_NEAR(w.at(0.0), 1.0, 1e-3);  // initial condition from OP
  for (double t : {2e-9, 4e-9, 8e-9}) {
    const double expected = std::exp(-t / (kR * kC));
    EXPECT_NEAR(w.at(t), expected, 5e-3) << "t=" << t;
  }
}

TEST(Transient, LargeRcLadderMatchesReferenceSamples) {
  // A 300-stage RC ladder (302 unknowns), far above the sizes of the
  // paper's paths. The expected samples come from a CSC sparse LU
  // (Gilbert-Peierls, partial pivoting) run of the same deck; the learned-
  // pattern workspace must reproduce them within the same 1 nV.
  Circuit c;
  const NodeId vin = c.node("vin");
  Pulse p;
  p.v1 = 0.0;
  p.v2 = 1.0;
  p.delay = 1e-10;
  p.rise = 1e-11;
  p.width = 1.0;
  c.add_vsource("V1", vin, kGround, p);
  NodeId prev = vin;
  for (int i = 0; i < 300; ++i) {
    const NodeId n = c.node("n" + std::to_string(i));
    c.add_resistor("R" + std::to_string(i), prev, n, 500.0);
    c.add_capacitor("C" + std::to_string(i), n, kGround, 0.5e-12);
    prev = n;
  }
  TransientOptions opt;
  opt.t_stop = 3e-9;
  opt.dt = 2e-12;
  const TransientResult r = run_transient(c, opt);
  ASSERT_EQ(c.unknown_count(), 302u);
  struct Sample {
    const char* node;
    double t;
    double v;
  };
  const Sample expected[] = {
      {"n0", 0.5e-9, 0.57031396499574116},   {"n0", 1.0e-9, 0.70717164419166056},
      {"n0", 1.5e-9, 0.76388168339965334},   {"n0", 2.0e-9, 0.79678791515684},
      {"n0", 2.5e-9, 0.81891914053066128},   {"n3", 0.5e-9, 0.031534239375502704},
      {"n3", 1.0e-9, 0.13790344203242058},   {"n3", 1.5e-9, 0.23199613297501734},
      {"n3", 2.0e-9, 0.30437198452012432},   {"n3", 2.5e-9, 0.36065236582181626},
      {"n10", 0.5e-9, 2.5968642840977424e-07}, {"n10", 1.0e-9, 0.00011736384473398734},
      {"n10", 1.5e-9, 0.0014167778560751935}, {"n10", 2.0e-9, 0.0055088174707167174},
      {"n10", 2.5e-9, 0.012940257680209004},
  };
  for (const Sample& s : expected)
    EXPECT_NEAR(r.wave(s.node).at(s.t), s.v, 1e-9) << s.node << " t=" << s.t;
}

TEST(Transient, LinearLadderFactorsOncePerNewtonIteration) {
  // Every solve refactors, linear circuits included: the LU's pattern and
  // full-loop factors add up to the transient's Newton iterations. A fixed
  // step of dt then the half step that lands on t_stop (both exact in
  // binary, so no rounding sliver) pins the step and iteration counts.
  Circuit c;
  const NodeId vin = c.node("vin");
  Pulse p;
  p.v2 = 1.0;
  p.delay = 1e-10;
  p.rise = 5e-11;
  p.width = 1.0;
  c.add_vsource("V1", vin, kGround, p);
  NodeId prev = vin;
  for (int i = 0; i < 10; ++i) {
    const NodeId n = c.node("n" + std::to_string(i));
    c.add_resistor("R" + std::to_string(i), prev, n, 1e3);
    c.add_capacitor("C" + std::to_string(i), n, kGround, 10e-15);
    prev = n;
  }
  TransientOptions opt;
  opt.dt = std::ldexp(1.0, -37);  // ~7.3 ps
  opt.t_stop = 128.5 * opt.dt;

  const auto count = [](const char* name) { return obs::counter(name).value(); };
  ASSERT_TRUE(obs::metrics_enabled());
  const auto factors = [&] {
    return count("spice.lu.pattern_factors") + count("spice.lu.full_factors");
  };
  const std::uint64_t factors0 = factors();
  const TransientResult r = run_transient(c, opt);

  EXPECT_EQ(r.steps, 129u);
  EXPECT_EQ(r.rejected_steps, 0u);
  // The 13 steps before the pulse arrives take one Newton iteration each,
  // every later step two.
  EXPECT_EQ(r.newton_iterations, 245u);
  EXPECT_EQ(factors() - factors0, r.newton_iterations);
}

TEST(Transient, RejectsBadOptions) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_vsource("V1", n, kGround, Dc{1.0});
  c.add_resistor("R1", n, kGround, 1e3);
  TransientOptions opt;
  opt.t_stop = -1.0;
  EXPECT_THROW(run_transient(c, opt), PreconditionError);
  opt.t_stop = 1e-9;
  opt.dt = 0.0;
  EXPECT_THROW(run_transient(c, opt), PreconditionError);
}

TEST(TransientResult, UnknownNodeThrows) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_vsource("V1", n, kGround, Dc{1.0});
  c.add_resistor("R1", n, kGround, 1e3);
  TransientOptions opt;
  opt.t_stop = 1e-10;
  opt.dt = 1e-11;
  const TransientResult res = run_transient(c, opt);
  EXPECT_THROW(static_cast<void>(res.wave("nope")), PreconditionError);
  EXPECT_NO_THROW(static_cast<void>(res.wave("n")));
}

}  // namespace
}  // namespace ppd::spice
