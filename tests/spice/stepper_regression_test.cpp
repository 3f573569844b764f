// Transient-stepper bugfix regressions:
//  - a sub-dt_min final sliver is snapped to t_stop instead of being
//    integrated (or spinning the loop) — the record still ends at exactly
//    t_stop;
//  - the end-of-sweep guard is relative, so sweeps end at exactly t_stop at
//    any time scale, fixed or adaptive;
//  - a failed operating point reports the UNCLAMPED Newton update, not a
//    value saturated at dv_max.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "ppd/cells/netlist.hpp"
#include "ppd/spice/analysis.hpp"
#include "ppd/util/error.hpp"
#include "ppd/wave/waveform.hpp"

namespace ppd::spice {
namespace {

// One driven inverter with an output load — the smallest circuit that
// exercises OP + nonlinear transient stepping.
struct InverterFixture {
  cells::Process proc;
  cells::Netlist nl{proc};
  NodeId out = kGround;

  InverterFixture() {
    Circuit& c = nl.circuit();
    const NodeId in = c.node("in");
    Pulse p;
    p.v1 = 0.0;
    p.v2 = proc.vdd;
    p.delay = 0.2e-9;
    p.rise = 50e-12;
    p.fall = 50e-12;
    p.width = 1.0;
    c.add_vsource("Vin", in, kGround, p);
    nl.add_gate(cells::GateKind::kInv, "g0", {in}, "out");
    out = c.find_node("out");
    nl.add_load("Cl", out, 10e-15);
  }
};

void expect_ends_exactly_at(const wave::Waveform& w, double t_stop) {
  ASSERT_FALSE(w.empty());
  // Bitwise ==, not NEAR: the sweep must end at exactly the requested stop
  // time (accumulated-sum drift and absolute-epsilon guards both broke this).
  EXPECT_EQ(w.time(w.size() - 1), t_stop);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_LE(w.time(i), t_stop);
  for (std::size_t i = 1; i < w.size(); ++i)
    EXPECT_GT(w.time(i), w.time(i - 1));
}

TEST(StepperRegression, SubDtMinSliverSnapsToTStop) {
  // t_stop sits a sub-dt_min sliver past a whole number of steps: the final
  // remainder must be absorbed by snapping, not integrated as a ~1e-16 s
  // step (which used to either violate dt_min or stall Newton).
  InverterFixture f;
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.adaptive = false;
  opt.t_stop = 1000 * opt.dt + 1e-16;
  const TransientResult res = run_transient(f.nl.circuit(), opt);
  expect_ends_exactly_at(res.wave(f.out), opt.t_stop);
}

TEST(StepperRegression, FixedStepEndsExactlyAtTStop) {
  // t_stop deliberately NOT a multiple of dt: the last step must shorten to
  // land on t_stop exactly.
  InverterFixture f;
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.adaptive = false;
  opt.t_stop = 1.7e-9 + 0.7e-12;
  const TransientResult res = run_transient(f.nl.circuit(), opt);
  expect_ends_exactly_at(res.wave(f.out), opt.t_stop);
}

TEST(StepperRegression, AdaptiveSweepEndsExactlyAtTStop) {
  InverterFixture f;
  TransientOptions opt;
  opt.dt = 2e-12;
  opt.adaptive = true;
  opt.t_stop = 2e-9;
  const TransientResult res = run_transient(f.nl.circuit(), opt);
  expect_ends_exactly_at(res.wave(f.out), opt.t_stop);
}

TEST(StepperRegression, ShortTimeScaleSweepEndsExactlyAtTStop) {
  // The old end guard compared against an ABSOLUTE epsilon; at picosecond
  // stop times it swallowed real steps. Relative guard: exact landing.
  InverterFixture f;
  TransientOptions opt;
  opt.dt = 1e-15;
  opt.adaptive = false;
  opt.t_stop = 3e-13;
  const TransientResult res = run_transient(f.nl.circuit(), opt);
  expect_ends_exactly_at(res.wave(f.out), opt.t_stop);
}

TEST(StepperRegression, OpFailureReportsUnclampedResidual) {
  // One Newton iteration from a flat start moves the supply rail by vdd
  // (1.8 V) — larger than the dv_max clamp (1.0 V). The failure message
  // must report that true update; the clamped bug saturated it at dv_max.
  InverterFixture f;
  // A unique load value keeps this circuit's content hash distinct from
  // every other test's, so the OP warm-start cache cannot hand the solver a
  // converged iterate and defeat the one-iteration failure setup.
  f.nl.add_load("Cl2", f.out, 3.3e-15);
  OpOptions opt;
  opt.newton.max_iterations = 1;
  opt.allow_gmin_stepping = false;
  opt.allow_source_stepping = false;
  try {
    static_cast<void>(run_op(f.nl.circuit(), opt));
    FAIL() << "operating point unexpectedly converged in one iteration";
  } catch (const NumericalError& e) {
    const std::string msg = e.what();
    const char* tag = "final update ";
    const auto pos = msg.find(tag);
    ASSERT_NE(pos, std::string::npos) << msg;
    const double residual = std::atof(msg.c_str() + pos + std::strlen(tag));
    EXPECT_GT(residual, opt.newton.dv_max) << msg;
  }
}

}  // namespace
}  // namespace ppd::spice
