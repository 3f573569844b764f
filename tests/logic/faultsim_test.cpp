#include "ppd/logic/faultsim.hpp"

#include <gtest/gtest.h>

#include "ppd/logic/bench.hpp"
#include "ppd/sta/interval_sta.hpp"
#include "ppd/util/error.hpp"

namespace ppd::logic {
namespace {

FaultSimulator c17_sim() {
  static const Netlist nl = c17();
  return FaultSimulator(nl, GateTimingLibrary::generic());
}

PulseTest test_on(const Netlist& nl, const std::vector<std::string>& nets,
                  double w_in = 0.4e-9, double w_th = 0.15e-9) {
  PulseTest t;
  for (const auto& n : nets) t.path.nets.push_back(nl.find(n));
  t.w_in = w_in;
  t.w_th = w_th;
  t.vector.assign(nl.inputs().size(), false);
  return t;
}

TEST(FaultyTiming, InternalRopAttacksOnePolarityOnly) {
  const FaultSimulator sim = c17_sim();
  const Gate& g = sim.netlist().gate(sim.netlist().find("16"));
  LogicFault f;
  f.gate = sim.netlist().find("16");
  f.kind = LogicFaultKind::kInternalRopPullUp;
  f.resistance = 10e3;
  const GateTiming clean = sim.library().timing(g.kind);
  const GateTiming hit = sim.faulty_timing(g, f, /*positive=*/true);
  const GateTiming spared = sim.faulty_timing(g, f, /*positive=*/false);
  EXPECT_GT(hit.w_block, clean.w_block);
  EXPECT_GT(hit.delay_rise, clean.delay_rise);
  EXPECT_DOUBLE_EQ(spared.w_block, clean.w_block);
  // Pull-down mirror.
  f.kind = LogicFaultKind::kInternalRopPullDown;
  EXPECT_GT(sim.faulty_timing(g, f, false).w_block, clean.w_block);
  EXPECT_DOUBLE_EQ(sim.faulty_timing(g, f, true).w_block, clean.w_block);
}

TEST(FaultyTiming, ExternalRopAttacksBothPolarities) {
  const FaultSimulator sim = c17_sim();
  const Gate& g = sim.netlist().gate(sim.netlist().find("16"));
  LogicFault f;
  f.gate = sim.netlist().find("16");
  f.kind = LogicFaultKind::kExternalRop;
  f.resistance = 10e3;
  const GateTiming clean = sim.library().timing(g.kind);
  for (bool pol : {true, false}) {
    const GateTiming t = sim.faulty_timing(g, f, pol);
    EXPECT_GT(t.w_block, clean.w_block);
    EXPECT_GT(t.delay_rise, clean.delay_rise);
    EXPECT_GT(t.delay_fall, clean.delay_fall);
  }
}

TEST(Response, FaultFreeMatchesAttenuationChain) {
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  const PulseTest t = test_on(nl, {"2", "16", "22"});
  const auto kinds = path_kinds(nl, t.path);
  EXPECT_DOUBLE_EQ(sim.response(t, nullptr),
                   chain_pulse_out(sim.library(), kinds, t.w_in));
}

TEST(Response, GrowsWeakerWithResistance) {
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  const PulseTest t = test_on(nl, {"2", "16", "22"});
  LogicFault f;
  f.gate = nl.find("16");
  f.kind = LogicFaultKind::kExternalRop;
  double prev = sim.response(t, nullptr);
  for (double r : {2e3, 6e3, 12e3, 20e3}) {
    f.resistance = r;
    const double w = sim.response(t, &f);
    EXPECT_LE(w, prev + 1e-18) << "R=" << r;
    prev = w;
  }
  // Large enough opens kill the pulse completely.
  f.resistance = 60e3;
  EXPECT_DOUBLE_EQ(sim.response(t, &f), 0.0);
}

TEST(Detects, RequiresFaultOnPath) {
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  const PulseTest t = test_on(nl, {"2", "16", "22"});
  LogicFault f;
  f.gate = nl.find("19");  // not on the tested path
  f.kind = LogicFaultKind::kExternalRop;
  f.resistance = 1e6;
  EXPECT_FALSE(sim.detects(t, f));
  f.gate = nl.find("16");
  EXPECT_TRUE(sim.detects(t, f));
}

TEST(Detects, PolarityChoiceMatters) {
  // An internal pull-up ROP at NAND gate 16: its output pulse must lead
  // with a rising edge to be attacked. With NAND gates on the way the
  // polarity at gate 16 depends on the launched pulse kind.
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  PulseTest t = test_on(nl, {"2", "16", "22"});
  LogicFault f;
  f.gate = nl.find("16");
  f.kind = LogicFaultKind::kInternalRopPullUp;
  f.resistance = 12e3;
  t.positive_pulse = true;   // h at PI "2" -> negative pulse at 16's output
  const double resp_h = sim.response(t, &f);
  t.positive_pulse = false;  // l at PI -> positive pulse at 16: attacked
  const double resp_l = sim.response(t, &f);
  EXPECT_LT(resp_l, resp_h);
}

TEST(Run, CountsDetections) {
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  PulseTest t = test_on(nl, {"2", "16", "22"}, 0.4e-9, 0.2e-9);
  std::vector<LogicFault> faults;
  LogicFault f;
  f.gate = nl.find("16");
  f.kind = LogicFaultKind::kExternalRop;
  f.resistance = 40e3;
  faults.push_back(f);       // on path, strong: detected
  f.gate = nl.find("19");
  faults.push_back(f);       // off path: missed
  f.gate = nl.find("16");
  f.resistance = 100.0;
  faults.push_back(f);       // too weak: missed
  const FaultCoverage cov = sim.run(faults, {t});
  EXPECT_EQ(cov.detected_count, 1u);
  EXPECT_TRUE(cov.detected[0]);
  EXPECT_FALSE(cov.detected[1]);
  EXPECT_FALSE(cov.detected[2]);
  EXPECT_NEAR(cov.coverage(faults.size()), 1.0 / 3.0, 1e-12);
}

TEST(Atpg, CoversC17RopFaults) {
  const Netlist nl = c17();
  const FaultSimulator sim(nl, GateTimingLibrary::generic());
  std::vector<NetId> sites;
  for (NetId id = 0; id < nl.size(); ++id)
    if (nl.gate(id).kind != LogicKind::kInput) sites.push_back(id);
  const auto faults = enumerate_rop_faults(sites, 20e3);
  const AtpgResult res = generate_pulse_tests(sim, faults);
  EXPECT_EQ(res.faults_total, 18u);  // 6 gates x 3 kinds
  EXPECT_GE(res.coverage.coverage(res.faults_total), 0.8)
      << "c17 is highly testable";
  EXPECT_FALSE(res.tests.empty());
  // Every generated test must actually be sensitizable and self-consistent.
  for (const auto& t : res.tests) {
    EXPECT_TRUE(is_sensitized(nl, t.path, t.vector));
    EXPECT_GT(sim.response(t, nullptr), t.w_th)
        << "fault-free machine must pass its own test";
  }
}

TEST(Atpg, DegenerateWidthGridYieldsNoTestsNotAWrap) {
  // w_grid_points < 2 cannot support a slope estimate; width planning must
  // report "no feasible pair" instead of wrapping w_in.size() - 1 at 0.
  const Netlist nl = c17();
  const FaultSimulator sim(nl, GateTimingLibrary::generic());
  std::vector<NetId> sites;
  for (NetId id = 0; id < nl.size(); ++id)
    if (nl.gate(id).kind != LogicKind::kInput) sites.push_back(id);
  const auto faults = enumerate_rop_faults(sites, 20e3);
  for (const std::size_t points : {0u, 1u}) {
    AtpgOptions opt;
    opt.w_grid_points = points;
    const AtpgResult res = generate_pulse_tests(sim, faults, opt);
    EXPECT_TRUE(res.tests.empty()) << points;
    EXPECT_EQ(res.coverage.detected_count, 0u) << points;
  }
}

TEST(Atpg, SmallResistanceLowersCoverage) {
  const Netlist nl = c17();
  const FaultSimulator sim(nl, GateTimingLibrary::generic());
  std::vector<NetId> sites;
  for (NetId id = 0; id < nl.size(); ++id)
    if (nl.gate(id).kind != LogicKind::kInput) sites.push_back(id);
  const auto strong = enumerate_rop_faults(sites, 30e3);
  const auto weak = enumerate_rop_faults(sites, 150.0);
  const double cov_strong =
      generate_pulse_tests(sim, strong).coverage.coverage(strong.size());
  const double cov_weak =
      generate_pulse_tests(sim, weak).coverage.coverage(weak.size());
  EXPECT_GT(cov_strong, cov_weak);
  // 150-ohm opens shave only a few ps of width: inside the sensor guard
  // band for (almost) every fault. (Internal opens in the 0.5-1 kOhm range
  // are already borderline-detectable, matching the electrical layer.)
  EXPECT_LT(cov_weak, 0.2) << "sub-guard-band opens should be undetectable";
}

TEST(Atpg, FullFlowOnSyntheticBenchmarkSlackSites) {
  // The complete announced tool: STA -> non-critical sites -> fault list ->
  // ATPG -> coverage, on the C432-class benchmark.
  const Netlist nl = synthetic_benchmark(SyntheticOptions{});
  const auto lib = GateTimingLibrary::generic();
  const sta::IntervalStaResult sta = sta::run_interval_sta(nl, lib);
  auto sites = sta::slack_sites(nl, sta, 0.25 * sta.critical_delay);
  ASSERT_GE(sites.size(), 8u);
  sites.resize(8);  // keep the test quick
  const FaultSimulator sim(nl, lib);
  const auto faults = enumerate_rop_faults(sites, 25e3);
  const AtpgResult res = generate_pulse_tests(sim, faults);
  EXPECT_GT(res.coverage.coverage(res.faults_total), 0.2)
      << "some slack-site faults must be testable";
  EXPECT_EQ(res.coverage.detected_count + res.aborted +
                (res.faults_total - res.coverage.detected_count - res.aborted),
            res.faults_total);
  // Tests target non-critical sites: by construction every tested fault
  // would need > 0.25 * Tcrit of extra delay to show up in DF testing.
  for (const auto& t : res.tests) EXPECT_GE(t.path.length(), 2u);
}

TEST(MultiFault, DampeningCompoundsNeverMasks) {
  // The paper criticizes ordering-based DF methods because "fault effects
  // can be masked by the presence of multiple path DFs". The pulse width
  // map is monotone: adding defects can only shrink the response.
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  const PulseTest t = test_on(nl, {"3", "11", "16", "22"});
  LogicFault f1;
  f1.gate = nl.find("11");
  f1.kind = LogicFaultKind::kExternalRop;
  f1.resistance = 6e3;
  LogicFault f2;
  f2.gate = nl.find("16");
  f2.kind = LogicFaultKind::kExternalRop;
  f2.resistance = 6e3;
  const double clean = sim.response(t, nullptr);
  const double only1 = sim.response(t, &f1);
  const double only2 = sim.response(t, &f2);
  const double both = sim.response_multi(t, {f1, f2});
  EXPECT_LT(only1, clean);
  EXPECT_LT(only2, clean);
  EXPECT_LE(both, std::min(only1, only2))
      << "a second defect must never restore the pulse";
}

TEST(MultiFault, CoLocatedDefectsStack) {
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  const PulseTest t = test_on(nl, {"2", "16", "22"});
  LogicFault f;
  f.gate = nl.find("16");
  f.kind = LogicFaultKind::kExternalRop;
  f.resistance = 5e3;
  const double one = sim.response(t, &f);
  const double two = sim.response_multi(t, {f, f});
  LogicFault big = f;
  big.resistance = 10e3;
  const double doubled = sim.response(t, &big);
  EXPECT_LE(two, one);
  EXPECT_NEAR(two, doubled, 1e-15) << "stacking equals the summed R";
}

TEST(MultiFault, EmptyListEqualsFaultFree) {
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  const PulseTest t = test_on(nl, {"2", "16", "22"});
  EXPECT_DOUBLE_EQ(sim.response_multi(t, {}), sim.response(t, nullptr));
}

TEST(Compaction, DropsRedundantTests) {
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  std::vector<LogicFault> faults;
  LogicFault f;
  f.gate = nl.find("16");
  f.kind = LogicFaultKind::kExternalRop;
  f.resistance = 40e3;
  faults.push_back(f);
  // Two tests through the fault plus one useless test elsewhere.
  std::vector<PulseTest> tests{test_on(nl, {"2", "16", "22"}, 0.4e-9, 0.2e-9),
                               test_on(nl, {"2", "16", "23"}, 0.4e-9, 0.2e-9),
                               test_on(nl, {"7", "19", "23"}, 0.4e-9, 0.2e-9)};
  const auto before = sim.run(faults, tests);
  const auto compacted = compact_tests(sim, faults, tests);
  const auto after = sim.run(faults, compacted);
  EXPECT_EQ(before.detected_count, after.detected_count);
  EXPECT_LT(compacted.size(), tests.size());
  EXPECT_EQ(compacted.size(), 1u);
}

TEST(DelayTestingLogic, FaultAddsPathDelay) {
  const FaultSimulator sim = c17_sim();
  const Netlist& nl = sim.netlist();
  Path p;
  p.nets = {nl.find("2"), nl.find("16"), nl.find("22")};
  LogicFault f;
  f.gate = nl.find("16");
  f.kind = LogicFaultKind::kExternalRop;
  f.resistance = 10e3;
  const double clean = path_delay_logic(sim, p, nullptr);
  const double faulty = path_delay_logic(sim, p, &f);
  EXPECT_GT(clean, 0.0);
  EXPECT_NEAR(faulty - clean, 10e3 * FaultTimingCoefficients{}.c_delay, 1e-15);
}

TEST(DelayTestingLogic, SlackHidesSmallDefects) {
  // At a clock sized by the critical path, a path with generous slack hides
  // even a 10 kOhm open; a clock reduced to just above that path's own
  // delay exposes it — Figs. 6/8 at the logic level.
  const Netlist nl = synthetic_benchmark(SyntheticOptions{});
  const auto lib = GateTimingLibrary::generic();
  const FaultSimulator sim(nl, lib);
  const sta::IntervalStaResult sta = sta::run_interval_sta(nl, lib);

  // Find a slack site with a sensitizable path through it.
  Path tested;
  NetId site = 0;
  bool found = false;
  for (NetId s : sta::slack_sites(nl, sta, 0.4 * sta.critical_delay)) {
    for (const auto& p : enumerate_paths_through(nl, s, 16)) {
      if (sensitize_path(nl, p).ok) {
        tested = p;
        site = s;
        found = true;
        break;
      }
    }
    if (found) break;
  }
  ASSERT_TRUE(found);

  const auto faults = enumerate_rop_faults({site}, 10e3);
  const double fault_delay = 10e3 * FaultTimingCoefficients{}.c_delay;
  const double d_clean = path_delay_logic(sim, tested, nullptr);

  DelayTestModel at_speed;  // clock = critical delay + overhead
  const auto cov_at_speed = run_delay_testing(sim, faults, at_speed);
  EXPECT_EQ(cov_at_speed.detected_count, 0u)
      << "slack must hide the defect at speed";

  DelayTestModel reduced;
  reduced.clock_period = d_clean + reduced.ff_overhead + 0.5 * fault_delay;
  const auto cov_reduced = run_delay_testing(sim, faults, reduced);
  EXPECT_GT(cov_reduced.detected_count, cov_at_speed.detected_count);
}

TEST(DelayTestingLogic, PulseBeatsDelayAtCircuitScale) {
  // The headline comparison, at circuit scale and logic level: same faults,
  // at-speed DF testing vs the pulse method.
  const Netlist nl = synthetic_benchmark(SyntheticOptions{});
  const auto lib = GateTimingLibrary::generic();
  const FaultSimulator sim(nl, lib);
  const sta::IntervalStaResult sta = sta::run_interval_sta(nl, lib);
  auto sites = sta::slack_sites(nl, sta, 0.3 * sta.critical_delay);
  ASSERT_GE(sites.size(), 6u);
  sites.resize(6);
  const auto faults = enumerate_rop_faults(sites, 20e3);
  const auto pulse = generate_pulse_tests(sim, faults);
  const auto delay = run_delay_testing(sim, faults, DelayTestModel{});
  EXPECT_GT(pulse.coverage.detected_count, delay.detected_count);
}

TEST(EnumerateFaults, ThreeKindsPerSite) {
  const auto faults = enumerate_rop_faults({3, 7}, 5e3);
  ASSERT_EQ(faults.size(), 6u);
  EXPECT_EQ(faults[0].gate, 3u);
  EXPECT_EQ(faults[5].gate, 7u);
  EXPECT_THROW(static_cast<void>(enumerate_rop_faults({1}, -5.0)), PreconditionError);
}

}  // namespace
}  // namespace ppd::logic
