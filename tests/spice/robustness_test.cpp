// Robustness and feature coverage of the analysis engine: homotopy
// fallbacks, probe subsets, periodic sources, current-source transients,
// and determinism guarantees the Monte-Carlo experiments rely on.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "ppd/cells/netlist.hpp"
#include "ppd/cells/path.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/spice/analysis.hpp"
#include "ppd/util/error.hpp"
#include "ppd/wave/waveform.hpp"

namespace ppd::spice {
namespace {

TEST(OpRobustness, LatchNodesetSelectsStableRail) {
  // A bistable pair has three mathematical solutions. From a flat start
  // Newton lands on the metastable mid-rail point (as real SPICE does); a
  // .NODESET bias steers it to the chosen stable rail.
  auto solve = [](bool with_nodeset) {
    cells::Process proc;
    cells::Netlist nl(proc);
    auto& c = nl.circuit();
    const NodeId q = c.node("q");
    nl.add_gate(cells::GateKind::kInv, "g0", {q}, "qb");
    nl.add_gate(cells::GateKind::kInv, "g1", {c.find_node("qb")}, "q");
    OpOptions opt;
    if (with_nodeset) opt.nodesets = {{q, proc.vdd}};
    const OpResult op = run_op(c, opt);
    return std::pair{op.voltage(q), op.voltage(c.find_node("qb"))};
  };
  const auto [vq_flat, vqb_flat] = solve(false);
  EXPECT_LT(std::abs(vq_flat - vqb_flat), 0.2) << "expected metastable point";
  const auto [vq_set, vqb_set] = solve(true);
  EXPECT_GT(vq_set, 1.6);   // latched high
  EXPECT_LT(vqb_set, 0.2);  // complement low
}

TEST(OpRobustness, NodesetValidatesNode) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V", a, kGround, Dc{1.0});
  c.add_resistor("R", a, kGround, 1e3);
  OpOptions opt;
  opt.nodesets = {{99, 1.0}};
  EXPECT_THROW(run_op(c, opt), PreconditionError);
  opt.nodesets = {{kGround, 1.0}};
  EXPECT_THROW(run_op(c, opt), PreconditionError);
}

TEST(OpRobustness, SourceSteppingPathStillSolves) {
  // Force the ladder's last rung by disabling gmin stepping.
  cells::Process proc;
  cells::Netlist nl(proc);
  auto& c = nl.circuit();
  nl.add_gate(cells::GateKind::kNor3, "g",
              {c.node("a"), c.node("b"), c.node("x")}, "o");
  c.add_vsource("Va", c.find_node("a"), kGround, Dc{0.0});
  c.add_vsource("Vb", c.find_node("b"), kGround, Dc{0.0});
  c.add_vsource("Vx", c.find_node("x"), kGround, Dc{0.0});
  OpOptions opt;
  opt.allow_gmin_stepping = false;
  const OpResult op = run_op(c, opt);
  EXPECT_GT(op.voltage(c.find_node("o")), 0.9 * proc.vdd);
}

TEST(OpRobustness, NanIterateThrowsInsteadOfConverging) {
  // The chaos seam poisons the first Newton iterate with NaN. A NaN update
  // fails every `> tolerance` test, so only the non-finite guard stands
  // between it and a "converged" NaN operating point; with every fallback
  // rung off, the solve must end in NumericalError.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("V", a, kGround, Dc{1.0});
  c.add_resistor("R1", a, b, 1e3);
  c.add_resistor("R2", b, kGround, 1e3);
  OpOptions opt;
  opt.allow_gmin_stepping = false;
  opt.allow_source_stepping = false;
  const resil::FaultPlan plan = resil::FaultPlan::parse("seed=1,nan=1");
  const resil::FaultScope scope(plan, 0);
  EXPECT_THROW(static_cast<void>(run_op(c, opt)), NumericalError);
}

/// The time a transient error message reports after "at t = ".
double reported_time(const std::string& what) {
  const std::string key = "at t = ";
  const std::size_t at = what.find(key);
  EXPECT_NE(at, std::string::npos) << what;
  if (at == std::string::npos) return 0.0;
  return std::stod(what.substr(at + key.size()));
}

/// An RC low-pass driven by a DC source: a few fixed 10 ps steps.
void rc_lowpass(Circuit& c) {
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("V1", a, kGround, Dc{1.0});
  c.add_resistor("R1", a, b, 1e3);
  c.add_capacitor("C1", b, kGround, 1e-12);
}

TEST(Transient, BudgetExpiryReportsTheStepTime) {
  // The first accepted step outlasts the whole budget, so the next step's
  // deadline check throws. The message must name nanosecond times as such
  // (a %f rendering printed every one as 0.000000).
  Circuit c;
  rc_lowpass(c);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 1e-11;
  opt.budget_seconds = 0.1;
  const auto stall = [](const TransientResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return false;
  };
  try {
    static_cast<void>(run_transient(c, opt, stall));
    FAIL() << "budget did not expire";
  } catch (const TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("of 1e-09 s"), std::string::npos) << what;
    EXPECT_DOUBLE_EQ(reported_time(what), 1e-11) << what;
  }
}

TEST(Transient, NewtonFailureReportsTheStepTime) {
  // The chaos seam fails a fixed-step Newton solve after the operating
  // point converged; the message must carry that step's time, not 0.000000.
  Circuit c;
  rc_lowpass(c);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 1e-11;
  const resil::FaultPlan plan = resil::FaultPlan::parse("seed=3,newton=0.2");
  const resil::FaultScope scope(plan, 0);
  try {
    static_cast<void>(run_transient(c, opt));
    FAIL() << "no Newton failure was injected";
  } catch (const NumericalError& e) {
    const std::string what = e.what();
    ASSERT_NE(what.find("transient Newton failed"), std::string::npos) << what;
    const double t = reported_time(what);
    EXPECT_GT(t, 0.0) << what;
    EXPECT_LE(t, opt.t_stop) << what;
  }
}

TEST(Transient, ProbeSubsetRestrictsRecording) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("V1", a, kGround, Dc{1.0});
  c.add_resistor("R1", a, b, 1e3);
  c.add_capacitor("C1", b, kGround, 1e-12);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 1e-11;
  opt.probe = {b};
  const TransientResult res = run_transient(c, opt);
  EXPECT_NO_THROW(static_cast<void>(res.wave(b)));
  EXPECT_THROW(static_cast<void>(res.wave(a)), PreconditionError);  // not probed
  EXPECT_THROW(static_cast<void>(res.wave(static_cast<NodeId>(0))), PreconditionError);
  TransientOptions bad = opt;
  bad.probe = {99};
  Circuit c2;
  const NodeId a2 = c2.node("a");
  c2.add_vsource("V1", a2, kGround, Dc{1.0});
  c2.add_resistor("R1", a2, kGround, 1e3);
  EXPECT_THROW(run_transient(c2, bad), PreconditionError);
}

TEST(Transient, PeriodicPulseProducesRepeatedCycles) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  Pulse p;
  p.v1 = 0.0;
  p.v2 = 1.0;
  p.delay = 0.1e-9;
  p.rise = 10e-12;
  p.fall = 10e-12;
  p.width = 0.2e-9;
  p.period = 0.5e-9;
  c.add_vsource("V1", in, kGround, p);
  c.add_resistor("R1", in, out, 200.0);
  c.add_capacitor("C1", out, kGround, 0.05e-12);
  TransientOptions opt;
  opt.t_stop = 2.2e-9;
  opt.dt = 2e-12;
  const auto res = run_transient(c, opt);
  const auto xs = wave::crossings(res.wave(out), 0.5);
  // 4 full periods and a fifth pulse: at least 8 crossings.
  EXPECT_GE(xs.size(), 8u);
}

TEST(Transient, CurrentSourceChargesCapacitorLinearly) {
  // Pulsed current source into a capacitor: dV/dt = I/C once the source
  // turns on (a DC source would instead set a huge bleed-limited OP).
  Circuit c;
  const NodeId n = c.node("n");
  Pulse ip;
  ip.v1 = 0.0;
  ip.v2 = 1e-6;  // 1 uA
  ip.delay = 0.1e-9;
  ip.rise = 1e-12;
  ip.fall = 1e-12;
  ip.width = 2e-9;
  c.add_isource("I1", n, kGround, ip);
  c.add_capacitor("C1", n, kGround, 1e-12);
  c.add_resistor("Rb", n, kGround, 1e9);
  TransientOptions opt;
  opt.t_stop = 1.1e-9;
  opt.dt = 1e-12;
  const auto res = run_transient(c, opt);
  // I/C = 1e6 V/s -> 1 mV over the 1 ns the source is on.
  const double v0 = res.wave(n).at(0.1e-9);
  const double v1 = res.wave(n).at(1.1e-9);
  EXPECT_NEAR(v1 - v0, 1e-3, 5e-5);
}

TEST(Transient, DeterministicAcrossRuns) {
  // Bit-identical waveforms for identical circuits: the property that makes
  // the Monte-Carlo coverage experiments reproducible.
  auto run_once = [] {
    cells::Process proc;
    cells::PathOptions po;
    po.kinds.assign(3, cells::GateKind::kInv);
    cells::Path path = cells::build_path(proc, po);
    path.drive_pulse(true, 0.4e-9, 0.3e-9);
    TransientOptions opt;
    opt.t_stop = 2e-9;
    opt.dt = 2e-12;
    opt.adaptive = true;
    return run_transient(path.netlist().circuit(), opt)
        .wave(path.output())
        .values();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Transient, RejectedStepsReportedUnderStress) {
  // An adaptive run over a stiff edge may reject steps but must finish.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  Pulse p;
  p.v1 = 0.0;
  p.v2 = 5.0;
  p.delay = 0.1e-9;
  p.rise = 1e-13;  // brutal edge
  p.fall = 1e-13;
  p.width = 0.5e-9;
  c.add_vsource("V1", in, kGround, p);
  c.add_resistor("R1", in, out, 10.0);
  c.add_capacitor("C1", out, kGround, 1e-12);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 5e-12;
  opt.adaptive = true;
  const auto res = run_transient(c, opt);
  EXPECT_GT(res.steps, 0u);
  EXPECT_NEAR(res.wave(out).at(0.4e-9), 5.0, 0.05);
}

TEST(Circuit, NetlistDumpContainsDevices) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("Vsup", a, kGround, Dc{1.0});
  c.add_resistor("Rload", a, kGround, 1e3);
  const std::string dump = c.to_netlist();
  EXPECT_NE(dump.find("Vsup"), std::string::npos);
  EXPECT_NE(dump.find("Rload"), std::string::npos);
  EXPECT_NE(dump.find("a"), std::string::npos);
}

TEST(Circuit, DuplicateDeviceNameThrows) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("R1", a, kGround, 1e3);
  EXPECT_THROW(c.add_resistor("R1", a, kGround, 2e3), PreconditionError);
}

TEST(Circuit, TypedAccessorsCheckKind) {
  Circuit c;
  const NodeId a = c.node("a");
  const DeviceId r = c.add_resistor("R1", a, kGround, 1e3);
  EXPECT_NO_THROW(static_cast<void>(c.resistor(r)));
  EXPECT_THROW(static_cast<void>(c.vsource(r)), PreconditionError);
  EXPECT_THROW(static_cast<void>(c.mosfet(r)), PreconditionError);
}

}  // namespace
}  // namespace ppd::spice
