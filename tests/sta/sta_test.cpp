// Unit tests for the ppd::sta static-analysis subsystem: interval STA,
// K-slackiest enumeration, SCOAP, survival bounds, the path screen and the
// PPD3xx lint family.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ppd/logic/bench.hpp"
#include "ppd/logic/sta.hpp"
#include "ppd/sta/interval.hpp"
#include "ppd/sta/interval_sta.hpp"
#include "ppd/sta/lint.hpp"
#include "ppd/sta/scoap.hpp"
#include "ppd/sta/screen.hpp"
#include "ppd/sta/survival.hpp"

namespace ppd::sta {
namespace {

using logic::GateTiming;
using logic::GateTimingLibrary;
using logic::LogicKind;
using logic::Netlist;
using logic::NetId;

GateTimingLibrary flat_library(double rise = 100e-12, double fall = 100e-12) {
  GateTimingLibrary lib;
  GateTiming t;
  t.delay_rise = rise;
  t.delay_fall = fall;
  lib.set_default(t);
  for (LogicKind k : {LogicKind::kNot, LogicKind::kNand, LogicKind::kNor,
                      LogicKind::kBuf, LogicKind::kAnd, LogicKind::kOr,
                      LogicKind::kXor, LogicKind::kXnor})
    lib.set(k, t);
  return lib;
}

TEST(Interval, BasicsAndHull) {
  const Interval a{1.0, 3.0};
  EXPECT_DOUBLE_EQ(a.width(), 2.0);
  EXPECT_TRUE(a.contains(2.0));
  EXPECT_FALSE(a.contains(3.5));
  EXPECT_EQ(a + 1.0, (Interval{2.0, 4.0}));
  EXPECT_EQ(hull(a, Interval{0.5, 2.0}), (Interval{0.5, 3.0}));
  EXPECT_EQ(Interval::point(5.0), (Interval{5.0, 5.0}));
}

TEST(EdgeCauseMap, MatchesGateSemantics) {
  EXPECT_EQ(edge_cause(LogicKind::kBuf), EdgeCause::kSame);
  EXPECT_EQ(edge_cause(LogicKind::kAnd), EdgeCause::kSame);
  EXPECT_EQ(edge_cause(LogicKind::kOr), EdgeCause::kSame);
  EXPECT_EQ(edge_cause(LogicKind::kNot), EdgeCause::kInverted);
  EXPECT_EQ(edge_cause(LogicKind::kNand), EdgeCause::kInverted);
  EXPECT_EQ(edge_cause(LogicKind::kNor), EdgeCause::kInverted);
  EXPECT_EQ(edge_cause(LogicKind::kXor), EdgeCause::kEither);
  EXPECT_EQ(edge_cause(LogicKind::kXnor), EdgeCause::kEither);
}

TEST(IntervalSta, PolarityAlternatesThroughInverters) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g1 = nl.add_gate(LogicKind::kNot, "g1", {a});
  const NetId g2 = nl.add_gate(LogicKind::kNot, "g2", {g1});
  nl.mark_output(g2);
  const auto lib = flat_library(120e-12, 60e-12);
  const IntervalStaResult r = run_interval_sta(nl, lib);
  // A rising g1 edge is caused by a falling input edge and costs
  // delay_rise; both windows are points (single path, no reconvergence).
  EXPECT_EQ(r.arrival[g1].rise, Interval::point(120e-12));
  EXPECT_EQ(r.arrival[g1].fall, Interval::point(60e-12));
  EXPECT_EQ(r.arrival[g2].rise, Interval::point(180e-12));
  EXPECT_EQ(r.arrival[g2].fall, Interval::point(180e-12));
  EXPECT_DOUBLE_EQ(r.critical_delay, 180e-12);
}

TEST(IntervalSta, ReconvergenceWidensTheWindow) {
  // out = NAND(a->slow chain, a): the fast and slow routes give the output
  // a genuine arrival window, not a single number.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId s1 = nl.add_gate(LogicKind::kBuf, "s1", {a});
  const NetId s2 = nl.add_gate(LogicKind::kBuf, "s2", {s1});
  const NetId out = nl.add_gate(LogicKind::kAnd, "out", {s2, a});
  nl.mark_output(out);
  const IntervalStaResult r = run_interval_sta(nl, flat_library());
  EXPECT_DOUBLE_EQ(r.arrival[out].rise.lo, 100e-12);  // via the direct input
  EXPECT_DOUBLE_EQ(r.arrival[out].rise.hi, 300e-12);  // via the buffer chain
  EXPECT_DOUBLE_EQ(r.arrival[out].rise.width(), 200e-12);
  EXPECT_DOUBLE_EQ(r.critical_delay, 300e-12);
  // Guaranteed slack is measured against the latest arrival, optimistic
  // against the earliest.
  EXPECT_NEAR(r.slack[out].lo, 0.0, 1e-18);
  EXPECT_NEAR(r.slack[out].hi, 200e-12, 1e-18);
}

TEST(IntervalSta, SlackIntervalClampsUnreachableNets) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g = nl.add_gate(LogicKind::kNot, "g", {a});
  const NetId dead = nl.add_gate(LogicKind::kNot, "dead", {b});
  nl.mark_output(g);
  const IntervalStaResult r = run_interval_sta(nl, flat_library(), 400e-12);
  EXPECT_TRUE(std::isinf(r.required_rise[dead]));
  EXPECT_TRUE(std::isinf(r.required_fall[dead]));
  EXPECT_NEAR(r.slack[dead].lo, 300e-12, 1e-18);
  EXPECT_DOUBLE_EQ(r.clock_period, 400e-12);
}

TEST(IntervalSta, AgreesWithScalarStaOnTheBenchmark) {
  const Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const auto lib = GateTimingLibrary::generic();
  const IntervalStaResult ir = run_interval_sta(nl, lib);
  const logic::StaResult sr = logic::run_sta(nl, lib);
  // Both passes are polarity-aware; the worst-case critical delay and the
  // per-net latest arrivals must agree exactly.
  EXPECT_DOUBLE_EQ(ir.critical_delay, sr.critical_delay);
  for (NetId id = 0; id < nl.size(); ++id)
    EXPECT_DOUBLE_EQ(ir.arrival[id].latest(), sr.arrival[id]) << "net " << id;
}

TEST(KSlackiest, FindsAllPathsOfATinyNetlist) {
  // a -> g1 -> out and b -> g2 -> out; delays make (b, g2) strictly
  // slacker. Both paths must come out, slackest first.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g1 = nl.add_gate(LogicKind::kBuf, "g1", {a});
  const NetId g2 = nl.add_gate(LogicKind::kBuf, "g2", {b});
  const NetId g3 = nl.add_gate(LogicKind::kBuf, "g3", {g1});
  const NetId out = nl.add_gate(LogicKind::kAnd, "out", {g3, g2});
  nl.mark_output(out);
  const auto paths = k_slackiest_paths(nl, flat_library(), 8);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].path.nets, (std::vector<NetId>{b, g2, out}));
  EXPECT_EQ(paths[1].path.nets, (std::vector<NetId>{a, g1, g3, out}));
  EXPECT_DOUBLE_EQ(paths[0].delay, 200e-12);
  EXPECT_DOUBLE_EQ(paths[1].delay, 300e-12);
  EXPECT_GT(paths[0].slack, paths[1].slack);
  // Clock defaults to the critical delay: the critical path has slack 0.
  EXPECT_NEAR(paths[1].slack, 0.0, 1e-18);
}

TEST(KSlackiest, DelaysMatchPathDelayWorstAndAreSorted) {
  const Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const auto lib = GateTimingLibrary::generic();
  const auto paths = k_slackiest_paths(nl, lib, 12);
  ASSERT_EQ(paths.size(), 12u);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_DOUBLE_EQ(paths[i].delay,
                     path_delay_worst(nl, lib, paths[i].path));
    if (i > 0) {
      EXPECT_GE(paths[i].delay, paths[i - 1].delay);
    }
  }
  // Determinism: a second run returns byte-identical paths.
  const auto again = k_slackiest_paths(nl, lib, 12);
  for (std::size_t i = 0; i < paths.size(); ++i)
    EXPECT_EQ(paths[i].path.nets, again[i].path.nets);
}

TEST(Scoap, HandComputedValuesOnASmallNetlist) {
  // c = AND(a, b); d = NOT(c). Goldstein: PIs CC0 = CC1 = 1.
  // AND: CC1 = cc1(a) + cc1(b) + 1 = 3, CC0 = min(cc0) + 1 = 2.
  // NOT: CC0 = cc1(c) + 1 = 4, CC1 = cc0(c) + 1 = 3.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_gate(LogicKind::kAnd, "c", {a, b});
  const NetId d = nl.add_gate(LogicKind::kNot, "d", {c});
  nl.mark_output(d);
  const ScoapResult s = compute_scoap(nl);
  EXPECT_EQ(s.cc0[a], 1u);
  EXPECT_EQ(s.cc1[a], 1u);
  EXPECT_EQ(s.cc0[c], 2u);
  EXPECT_EQ(s.cc1[c], 3u);
  EXPECT_EQ(s.cc0[d], 4u);
  EXPECT_EQ(s.cc1[d], 3u);
  // CO: output d = 0; c through the NOT costs +1; a through the AND costs
  // co(c) + 1 + cc1(b) = 1 + 1 + 1 = 3.
  EXPECT_EQ(s.co[d], 0u);
  EXPECT_EQ(s.co[c], 1u);
  EXPECT_EQ(s.co[a], 3u);
}

TEST(Scoap, SaturatingAddAbsorbsInfinity) {
  EXPECT_EQ(scoap_add(2, 3), 5u);
  EXPECT_EQ(scoap_add(kScoapInfinite, 3), kScoapInfinite);
  EXPECT_EQ(scoap_add(3, kScoapInfinite), kScoapInfinite);
  EXPECT_EQ(scoap_add(kScoapInfinite - 2, 5), kScoapInfinite);
}

TEST(Scoap, FiniteEverywhereOnTheBenchmark) {
  const Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const ScoapResult s = compute_scoap(nl);
  for (NetId id = 0; id < nl.size(); ++id) {
    EXPECT_NE(s.cc0[id], kScoapInfinite) << id;
    EXPECT_NE(s.cc1[id], kScoapInfinite) << id;
  }
}

TEST(Scoap, SideInputCostPricesNonControllingValues) {
  // Path a -> c -> e with side inputs b (AND: must be 1) and d (NOR: must
  // be 0).
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId d = nl.add_input("d");
  const NetId c = nl.add_gate(LogicKind::kAnd, "c", {a, b});
  const NetId e = nl.add_gate(LogicKind::kNor, "e", {c, d});
  nl.mark_output(e);
  const ScoapResult s = compute_scoap(nl);
  logic::Path p;
  p.nets = {a, c, e};
  EXPECT_EQ(side_input_cost(nl, s, p), s.cc1[b] + s.cc0[d]);
}

TEST(Survival, NominalBoundsMatchTheGateMap) {
  const GateTiming t = GateTimingLibrary::generic().timing(LogicKind::kNand);
  for (double w : {30e-12, 80e-12, 150e-12, 300e-12}) {
    const Interval out = gate_pulse_bounds(t, Interval::point(w), 0.0);
    EXPECT_DOUBLE_EQ(out.lo, logic::gate_pulse_out(t, w)) << w;
    EXPECT_DOUBLE_EQ(out.hi, logic::gate_pulse_out(t, w)) << w;
  }
}

TEST(Survival, MarginBoundsBracketTheNominalMapAtCorners) {
  // Corner exactness: the optimistic bound must equal the nominal map
  // under parameters scaled by (1 - margin), the pessimistic one under
  // (1 + margin) — and the bounds must bracket the nominal output.
  const GateTiming t = GateTimingLibrary::generic().timing(LogicKind::kNor);
  const double margin = 0.25;
  const auto scaled = [&](double f) {
    GateTiming s = t;
    s.w_block *= f;
    s.w_pass *= f;
    s.shrink *= f;
    return s;
  };
  for (double w : {40e-12, 70e-12, 110e-12, 200e-12, 500e-12}) {
    const Interval out = gate_pulse_bounds(t, Interval::point(w), margin);
    EXPECT_DOUBLE_EQ(out.hi, logic::gate_pulse_out(scaled(1.0 - margin), w));
    EXPECT_DOUBLE_EQ(out.lo, logic::gate_pulse_out(scaled(1.0 + margin), w));
    EXPECT_LE(out.lo, logic::gate_pulse_out(t, w) + 1e-18);
    EXPECT_GE(out.hi, logic::gate_pulse_out(t, w) - 1e-18);
  }
}

TEST(Survival, RequiredWidthInvertsTheOptimisticMap) {
  const GateTiming t = GateTimingLibrary::generic().timing(LogicKind::kNand);
  for (double margin : {0.0, 0.1, 0.25}) {
    for (double target : {10e-12, 60e-12, 120e-12, 400e-12}) {
      const double w = gate_required_width(t, target, margin);
      // Feeding the required width back through the optimistic corner must
      // reach the target (closed-form inverse of a piecewise-linear map).
      const Interval out = gate_pulse_bounds(t, Interval::point(w), margin);
      EXPECT_NEAR(out.hi, target, 1e-18) << margin << " " << target;
      // And epsilon less must fall short.
      const Interval under =
          gate_pulse_bounds(t, Interval::point(w - 1e-15), margin);
      EXPECT_LT(under.hi, target) << margin << " " << target;
    }
  }
}

TEST(Survival, PathRequiredWidthAgreesWithBisection) {
  // The closed-form backward composition must agree with the existing
  // bisection solver on the nominal (margin 0) chain map.
  const Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const auto lib = GateTimingLibrary::generic();
  const auto paths = k_slackiest_paths(nl, lib, 6);
  ASSERT_FALSE(paths.empty());
  for (const auto& sp : paths) {
    const double closed =
        path_required_width(lib, nl, sp.path, 100e-12, 0.0);
    const auto kinds = logic::path_kinds(nl, sp.path);
    const auto bisect =
        logic::required_input_width(lib, kinds, 100e-12, 2e-9, 1e-14);
    ASSERT_TRUE(bisect.has_value());
    EXPECT_NEAR(closed, *bisect, 1e-13);
  }
}

TEST(Survival, BackwardNeedPassMatchesPerPathBoundsOnAChain) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g1 = nl.add_gate(LogicKind::kNand, "g1", {a, a});
  const NetId g2 = nl.add_gate(LogicKind::kNor, "g2", {g1, g1});
  nl.mark_output(g2);
  const auto lib = GateTimingLibrary::generic();
  SurvivalOptions opt;
  opt.w_th_floor = 80e-12;
  opt.margin = 0.2;
  const SurvivalResult r = compute_survival(nl, lib, opt);
  // At the PO the need is the sensing floor itself; at the PI it equals
  // the full backward composition along the only path.
  EXPECT_DOUBLE_EQ(r.need[g2], opt.w_th_floor);
  logic::Path p;
  p.nets = {a, g1, g2};
  EXPECT_DOUBLE_EQ(r.need[a],
                   path_required_width(lib, nl, p, opt.w_th_floor, opt.margin));
  EXPECT_FALSE(r.dead(a));
}

TEST(Survival, TightCeilingMakesSitesDead) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  NetId prev = a;
  for (int i = 0; i < 8; ++i)
    prev = nl.add_gate(LogicKind::kNor, "n" + std::to_string(i), {prev, prev});
  nl.mark_output(prev);
  SurvivalOptions opt;
  opt.w_in_max = 90e-12;  // below the 8-stage NOR block threshold
  opt.margin = 0.0;
  const SurvivalResult r = compute_survival(nl, GateTimingLibrary::generic(), opt);
  EXPECT_TRUE(r.dead(a));
  EXPECT_FALSE(r.dead(prev));  // the PO itself only needs the floor
}

TEST(Screen, VerdictsAndDeterminismAcrossThreadCounts) {
  const Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const auto lib = GateTimingLibrary::generic();
  std::vector<logic::Path> paths;
  for (const auto& sp : k_slackiest_paths(nl, lib, 10)) paths.push_back(sp.path);
  ScreenOptions opt;
  opt.w_in_max = 0.14e-9;  // constrained generator: long paths must die
  opt.margin = 0.0;
  const ScreenReport serial = screen_paths(nl, lib, paths, opt);
  EXPECT_EQ(serial.paths.size(), paths.size());
  EXPECT_EQ(serial.kept + serial.pulse_dead + serial.unjustifiable,
            paths.size());
  for (int threads : {2, 8}) {
    ScreenOptions topt = opt;
    topt.threads = threads;
    const ScreenReport r = screen_paths(nl, lib, paths, topt);
    ASSERT_EQ(r.paths.size(), serial.paths.size());
    for (std::size_t i = 0; i < r.paths.size(); ++i) {
      EXPECT_EQ(r.paths[i].verdict, serial.paths[i].verdict) << i;
      EXPECT_DOUBLE_EQ(r.paths[i].delay, serial.paths[i].delay) << i;
      EXPECT_DOUBLE_EQ(r.paths[i].w_required, serial.paths[i].w_required) << i;
    }
  }
  // kept_paths() preserves input order of the kept subset.
  const auto kept = serial.kept_paths();
  EXPECT_EQ(kept.size(), serial.kept);
}

TEST(Screen, GenerousCeilingKeepsSensitizablePaths) {
  const Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const auto lib = GateTimingLibrary::generic();
  std::vector<logic::Path> paths;
  for (const auto& sp : k_slackiest_paths(nl, lib, 6)) paths.push_back(sp.path);
  ScreenOptions opt;  // defaults: w_in_max = 1.2 ns, margin = 0.25
  const ScreenReport r = screen_paths(nl, lib, paths, opt);
  EXPECT_EQ(r.pulse_dead, 0u)
      << "a 1.2 ns generator must never lose these short paths";
  for (const auto& sp : r.paths)
    if (sp.verdict == Verdict::kKept) {
      EXPECT_LT(sp.w_required, opt.w_in_max);
    }
}

TEST(StaLint, FamilyTriggersOnAConstrainedNetlist) {
  // A generator ceiling below the sensing floor makes every site pulse-dead
  // (PPD301) and the whole netlist undetectable (PPD304); the high-slack
  // dead side branch raises PPD303 on top.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  NetId prev = a;
  for (int i = 0; i < 8; ++i)
    prev = nl.add_gate(LogicKind::kNor, "n" + std::to_string(i), {prev, prev});
  const NetId slackful = nl.add_gate(LogicKind::kNot, "slackful", {b});
  const NetId out = nl.add_gate(LogicKind::kAnd, "out", {prev, slackful});
  nl.mark_output(out);

  StaLintOptions opt;
  opt.survival.w_in_max = 40e-12;  // below the 50 ps sensing floor
  opt.survival.margin = 0.0;
  const lint::Report report = lint_sta(nl, GateTimingLibrary::generic(), opt);
  bool saw301 = false, saw303 = false, saw304 = false;
  for (const auto& d : report.diagnostics()) {
    saw301 |= d.code == "PPD301";
    saw303 |= d.code == "PPD303";
    saw304 |= d.code == "PPD304";
  }
  EXPECT_TRUE(saw301);
  EXPECT_TRUE(saw303);
  EXPECT_TRUE(saw304);
  EXPECT_GT(report.count(lint::Severity::kWarning), 0u);
}

TEST(StaLint, CleanNetlistStaysClean) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g = nl.add_gate(LogicKind::kNot, "g", {a});
  nl.mark_output(g);
  const lint::Report report = lint_sta(nl, GateTimingLibrary::generic(), {});
  EXPECT_EQ(report.diagnostics().size(), 0u) << lint::to_text(report);
}

}  // namespace
}  // namespace ppd::sta
