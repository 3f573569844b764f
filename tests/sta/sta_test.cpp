// Unit tests for the ppd::sta static-analysis subsystem: interval STA
// (checked against an exhaustive-path oracle), slack sites, K-slackiest
// enumeration, SCOAP, survival bounds, the path screen and the PPD3xx lint
// family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ppd/logic/bench.hpp"
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

/// Chain with a short side branch:
///  a -> g0 -> g1 -> g2 -> out (critical, 4 levels incl. out gate)
///  b -> fast ---------------^
Netlist chain_with_branch() {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g0 = nl.add_gate(LogicKind::kNot, "g0", {a});
  const NetId g1 = nl.add_gate(LogicKind::kNot, "g1", {g0});
  const NetId g2 = nl.add_gate(LogicKind::kNot, "g2", {g1});
  const NetId fast = nl.add_gate(LogicKind::kNot, "fast", {b});
  const NetId out = nl.add_gate(LogicKind::kNand, "out", {g2, fast});
  nl.mark_output(out);
  return nl;
}

/// Every kind with its own rise != fall delay, so an edge-polarity mistake
/// anywhere in the pass changes some arrival.
GateTimingLibrary skewed_library() {
  GateTimingLibrary lib;
  double rise = 50e-12;
  for (LogicKind k : {LogicKind::kNot, LogicKind::kNand, LogicKind::kNor,
                      LogicKind::kBuf, LogicKind::kAnd, LogicKind::kOr,
                      LogicKind::kXor, LogicKind::kXnor}) {
    GateTiming t;
    t.delay_rise = rise;
    t.delay_fall = 0.55 * rise + 7e-12;
    lib.set(k, t);
    rise += 11e-12;
  }
  return lib;
}

/// A seeded random DAG over every gate kind (XOR/XNOR included); every
/// net without fanout is an output, plus one internal net.
Netlist random_dag(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const LogicKind kinds[] = {LogicKind::kNot, LogicKind::kBuf,
                             LogicKind::kAnd, LogicKind::kNand,
                             LogicKind::kOr,  LogicKind::kNor,
                             LogicKind::kXor, LogicKind::kXnor};
  Netlist nl;
  for (int i = 0; i < 4; ++i) nl.add_input("i" + std::to_string(i));
  for (int g = 0; g < 18; ++g) {
    const LogicKind kind = kinds[rng() % 8];
    const std::size_t arity =
        kind == LogicKind::kNot || kind == LogicKind::kBuf ? 1 : 2 + rng() % 2;
    std::vector<NetId> fanin;
    for (std::size_t k = 0; k < arity; ++k)
      fanin.push_back(static_cast<NetId>(rng() % nl.size()));
    nl.add_gate(kind, "g" + std::to_string(g), fanin);
  }
  for (NetId id = 0; id < nl.size(); ++id)
    if (nl.fanout(id).empty()) nl.mark_output(id);
  nl.mark_output(static_cast<NetId>(nl.inputs().size() + 3));
  return nl;
}

/// Exhaustive reference for the interval pass: a DFS over every PI->PO
/// path, each timed by path_delay_worst (whose prefix sums run in the same
/// order as the forward pass).
struct PathOracle {
  std::size_t paths = 0;
  double critical = -std::numeric_limits<double>::infinity();
  std::vector<double> ending;   ///< max delay over the paths ending here
  std::vector<double> through;  ///< max delay over the paths through here
};

PathOracle exhaustive_paths(const Netlist& nl, const GateTimingLibrary& lib) {
  PathOracle o;
  o.ending.assign(nl.size(), -std::numeric_limits<double>::infinity());
  o.through = o.ending;
  logic::Path path;
  const std::function<void(NetId)> visit = [&](NetId net) {
    path.nets.push_back(net);
    if (nl.is_output(net)) {
      const double d = path_delay_worst(nl, lib, path);
      ++o.paths;
      o.critical = std::max(o.critical, d);
      o.ending[net] = std::max(o.ending[net], d);
      for (NetId n : path.nets) o.through[n] = std::max(o.through[n], d);
    }
    for (NetId g : nl.fanout(net)) visit(g);
    path.nets.pop_back();
  };
  for (NetId pi : nl.inputs()) visit(pi);
  return o;
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

TEST(IntervalSta, AgreesWithExhaustivePathOracle) {
  struct Case {
    std::string name;
    Netlist netlist;
    GateTimingLibrary library;
  };
  std::vector<Case> cases;
  cases.push_back({"c17", logic::c17(), skewed_library()});
  for (std::uint32_t seed : {1u, 7u, 2007u})
    cases.push_back(
        {"dag" + std::to_string(seed), random_dag(seed), skewed_library()});
  cases.push_back({"c432-class",
                   logic::synthetic_benchmark(logic::SyntheticOptions{}),
                   GateTimingLibrary::generic()});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Netlist& nl = c.netlist;
    const IntervalStaResult r = run_interval_sta(nl, c.library);
    const PathOracle o = exhaustive_paths(nl, c.library);
    if (c.name == "c432-class") {
      EXPECT_EQ(o.paths, 6852u);
    }
    // The latest bounds are maxima of the same prefix sums: bitwise equal.
    EXPECT_EQ(r.critical_delay, o.critical);
    for (NetId out : nl.outputs())
      EXPECT_EQ(r.arrival[out].latest(), o.ending[out]) << nl.gate(out).name;
    // Guaranteed slack is the clock minus the worst path through the net;
    // the backward pass sums the suffix separately, so allow a few ulps.
    const double ulp = std::numeric_limits<double>::epsilon() * r.clock_period;
    for (NetId id = 0; id < nl.size(); ++id) {
      if (std::isinf(o.through[id])) continue;  // on no PI->PO path
      EXPECT_NEAR(r.slack[id].lo, r.clock_period - o.through[id], 4 * ulp)
          << nl.gate(id).name;
    }
  }
}

TEST(Sta, ArrivalTimesAccumulate) {
  const Netlist nl = chain_with_branch();
  const IntervalStaResult r = run_interval_sta(nl, flat_library());
  EXPECT_DOUBLE_EQ(r.arrival[nl.find("a")].latest(), 0.0);
  EXPECT_DOUBLE_EQ(r.arrival[nl.find("g0")].latest(), 100e-12);
  EXPECT_DOUBLE_EQ(r.arrival[nl.find("g2")].latest(), 300e-12);
  EXPECT_DOUBLE_EQ(r.arrival[nl.find("fast")].latest(), 100e-12);
  EXPECT_DOUBLE_EQ(r.arrival[nl.find("out")].latest(), 400e-12);
  EXPECT_DOUBLE_EQ(r.critical_delay, 400e-12);
}

TEST(Sta, SlackZeroOnCriticalPathAtCriticalClock) {
  const Netlist nl = chain_with_branch();
  const IntervalStaResult r = run_interval_sta(nl, flat_library());
  for (const char* n : {"g0", "g1", "g2", "out"})
    EXPECT_NEAR(r.slack_at(nl.find(n)), 0.0, 1e-18) << n;
  // The fast branch has two levels of spare time.
  EXPECT_NEAR(r.slack_at(nl.find("fast")), 200e-12, 1e-18);
}

TEST(Sta, LargerClockAddsUniformSlack) {
  const Netlist nl = chain_with_branch();
  const IntervalStaResult r = run_interval_sta(nl, flat_library(), 600e-12);
  EXPECT_NEAR(r.slack_at(nl.find("out")), 200e-12, 1e-18);
  EXPECT_NEAR(r.slack_at(nl.find("fast")), 400e-12, 1e-18);
  EXPECT_DOUBLE_EQ(r.clock_period, 600e-12);
}

TEST(Sta, SlackSitesSelectsNonCriticalGates) {
  const Netlist nl = chain_with_branch();
  const IntervalStaResult r = run_interval_sta(nl, flat_library());
  const auto sites = slack_sites(nl, r, 150e-12);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], nl.find("fast"));
  // With an (epsilon-negative) threshold every gate qualifies — critical
  // gates sit at slack 0 modulo rounding.
  EXPECT_EQ(slack_sites(nl, r, -1e-15).size(), nl.gate_count());
}

TEST(Sta, SyntheticBenchmarkHasSlackSpread) {
  // The premise of the paper: realistic circuits contain many gates with
  // substantial slack where small defects hide from delay testing.
  const Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const IntervalStaResult r = run_interval_sta(nl, GateTimingLibrary::generic());
  EXPECT_GT(r.critical_delay, 1e-9);  // ~20 levels
  const auto relaxed = slack_sites(nl, r, 0.25 * r.critical_delay);
  EXPECT_GT(relaxed.size(), nl.gate_count() / 10)
      << "expected a large non-critical population";
  // And the critical output itself has (near) zero slack.
  for (NetId out : nl.outputs()) {
    if (r.arrival[out].latest() == r.critical_delay) {
      EXPECT_LT(r.slack_at(out), 1e-12);
    }
  }
}

TEST(Sta, InverterChainUsesAlternatingEdgeDelays) {
  // Polarity regression: through two inverters, a launched rising edge
  // falls at the first output (delay_fall) and rises again at the second
  // (delay_rise) — 120 + 60 = 180 ps either way, NOT 2 x max = 240 ps.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g1 = nl.add_gate(LogicKind::kNot, "g1", {a});
  const NetId g2 = nl.add_gate(LogicKind::kNot, "g2", {g1});
  nl.mark_output(g2);
  const IntervalStaResult r =
      run_interval_sta(nl, flat_library(120e-12, 60e-12));
  EXPECT_DOUBLE_EQ(r.arrival[g1].rise.hi, 120e-12);
  EXPECT_DOUBLE_EQ(r.arrival[g1].fall.hi, 60e-12);
  EXPECT_DOUBLE_EQ(r.arrival[g2].rise.hi, 60e-12 + 120e-12);
  EXPECT_DOUBLE_EQ(r.arrival[g2].fall.hi, 120e-12 + 60e-12);
  EXPECT_DOUBLE_EQ(r.critical_delay, 180e-12);
  // And the whole chain is critical: zero slack at every net on it.
  for (NetId id : {a, g1, g2})
    EXPECT_NEAR(r.slack_at(id), 0.0, 1e-18) << nl.gate(id).name;
}

TEST(Sta, SingleGateNetlist) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g = nl.add_gate(LogicKind::kBuf, "g", {a});
  nl.mark_output(g);
  const IntervalStaResult r = run_interval_sta(nl, flat_library());
  EXPECT_DOUBLE_EQ(r.critical_delay, 100e-12);
  EXPECT_NEAR(r.slack_at(g), 0.0, 1e-18);
  ASSERT_EQ(slack_sites(nl, r, -1e-15).size(), 1u);
}

TEST(Sta, GateReachingNoOutputClampsSlackToClock) {
  // `dead` feeds nothing that reaches an output: its required time stays
  // infinite, and the reported slack clamps against the clock period
  // instead of going infinite.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g = nl.add_gate(LogicKind::kNot, "g", {a});
  const NetId dead = nl.add_gate(LogicKind::kNot, "dead", {b});
  nl.mark_output(g);
  const IntervalStaResult r = run_interval_sta(nl, flat_library(), 500e-12);
  EXPECT_TRUE(std::isinf(r.required_rise[dead]));
  EXPECT_TRUE(std::isinf(r.required_fall[dead]));
  EXPECT_NEAR(r.slack_at(dead), 500e-12 - 100e-12, 1e-18);
  // slack_sites at a generous threshold picks it up (alongside the equally
  // slack output gate), not an infinite or NaN slack.
  const auto sites = slack_sites(nl, r, 300e-12);
  EXPECT_EQ(sites, (std::vector<NetId>{g, dead}));
}

TEST(Sta, UsesWorstEdgeDelay) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g = nl.add_gate(LogicKind::kNor, "g", {a, a});
  nl.mark_output(g);
  const IntervalStaResult r = run_interval_sta(nl, flat_library(120e-12, 60e-12));
  EXPECT_DOUBLE_EQ(r.critical_delay, 120e-12);
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
  const auto lib = flat_library();
  const auto paths = k_slackiest_paths(nl, lib, run_interval_sta(nl, lib), 8);
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
  const IntervalStaResult sta = run_interval_sta(nl, lib);
  const auto paths = k_slackiest_paths(nl, lib, sta, 12);
  ASSERT_EQ(paths.size(), 12u);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_DOUBLE_EQ(paths[i].delay,
                     path_delay_worst(nl, lib, paths[i].path));
    if (i > 0) {
      EXPECT_GE(paths[i].delay, paths[i - 1].delay);
    }
  }
  // Determinism: a second run returns byte-identical paths.
  const auto again = k_slackiest_paths(nl, lib, sta, 12);
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
  const auto paths = k_slackiest_paths(nl, lib, run_interval_sta(nl, lib), 6);
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
  for (const auto& sp : k_slackiest_paths(nl, lib, run_interval_sta(nl, lib), 10))
    paths.push_back(sp.path);
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
  for (const auto& sp : k_slackiest_paths(nl, lib, run_interval_sta(nl, lib), 6))
    paths.push_back(sp.path);
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

  SurvivalOptions opt;
  opt.w_in_max = 40e-12;  // below the 50 ps sensing floor
  opt.margin = 0.0;
  const auto lib = GateTimingLibrary::generic();
  const lint::Report report = lint_sta(nl, lib, run_interval_sta(nl, lib),
                                       compute_survival(nl, lib, opt));
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
  const auto lib = GateTimingLibrary::generic();
  const lint::Report report =
      lint_sta(nl, lib, run_interval_sta(nl, lib), compute_survival(nl, lib));
  EXPECT_EQ(report.diagnostics().size(), 0u) << lint::to_text(report);
}

}  // namespace
}  // namespace ppd::sta
