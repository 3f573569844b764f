// ppd::exec wiring into the logic layer: fault-list evaluation, ATPG
// cross-detection folds, compaction and DF-testing verdicts must all be
// bit-identical to the serial path at any thread count, and a fired cancel
// token must abandon the evaluation.
#include "ppd/logic/faultsim.hpp"

#include <gtest/gtest.h>

#include "ppd/exec/cancel.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/sta/interval_sta.hpp"

namespace ppd::logic {
namespace {

FaultSimulator c17_sim() {
  static const Netlist nl = c17();
  return FaultSimulator(nl, GateTimingLibrary::generic());
}

std::vector<LogicFault> all_site_faults(const FaultSimulator& sim, double r) {
  const sta::IntervalStaResult sta =
      sta::run_interval_sta(sim.netlist(), sim.library());
  // Zero slack floor: every gate output is a fault site.
  return enumerate_rop_faults(sta::slack_sites(sim.netlist(), sta, 0.0), r);
}

bool identical(const FaultCoverage& a, const FaultCoverage& b) {
  return a.detected == b.detected && a.detected_count == b.detected_count;
}

TEST(FaultSimThreads, RunMatchesSerialAtAnyThreadCount) {
  const FaultSimulator sim = c17_sim();
  const auto faults = all_site_faults(sim, 8e3);
  AtpgOptions aopt;
  aopt.paths_per_site = 8;
  const AtpgResult atpg = generate_pulse_tests(sim, faults, aopt);
  ASSERT_FALSE(atpg.tests.empty());

  FaultSimOptions serial;  // threads = 1
  const FaultCoverage reference = sim.run(faults, atpg.tests, serial);
  for (int threads : {3, 0}) {
    FaultSimOptions par;
    par.threads = threads;
    EXPECT_TRUE(identical(sim.run(faults, atpg.tests, par), reference))
        << "threads=" << threads;
  }
}

TEST(FaultSimThreads, AtpgAndCompactionMatchSerial) {
  const FaultSimulator sim = c17_sim();
  const auto faults = all_site_faults(sim, 8e3);
  AtpgOptions serial;
  serial.paths_per_site = 8;
  const AtpgResult ref = generate_pulse_tests(sim, faults, serial);
  const auto ref_compacted = compact_tests(sim, faults, ref.tests, serial.exec);

  for (int threads : {3, 0}) {
    AtpgOptions par = serial;
    par.exec.threads = threads;
    const AtpgResult got = generate_pulse_tests(sim, faults, par);
    EXPECT_TRUE(identical(got.coverage, ref.coverage)) << "threads=" << threads;
    EXPECT_EQ(got.tests.size(), ref.tests.size()) << "threads=" << threads;
    EXPECT_EQ(got.aborted, ref.aborted) << "threads=" << threads;
    // The greedy selection order is sequential in both cases, so the chosen
    // tests line up one-to-one.
    for (std::size_t i = 0; i < got.tests.size(); ++i) {
      EXPECT_EQ(got.tests[i].path.nets, ref.tests[i].path.nets) << "i=" << i;
      EXPECT_DOUBLE_EQ(got.tests[i].w_in, ref.tests[i].w_in) << "i=" << i;
      EXPECT_DOUBLE_EQ(got.tests[i].w_th, ref.tests[i].w_th) << "i=" << i;
    }
    const auto compacted = compact_tests(sim, faults, got.tests, par.exec);
    EXPECT_EQ(compacted.size(), ref_compacted.size()) << "threads=" << threads;
  }
}

TEST(FaultSimThreads, DelayTestingMatchesSerial) {
  const FaultSimulator sim = c17_sim();
  const auto faults = all_site_faults(sim, 8e3);
  const sta::IntervalStaResult sta =
      sta::run_interval_sta(sim.netlist(), sim.library());
  DelayTestModel reduced;
  reduced.clock_period = 0.6 * (sta.critical_delay + reduced.ff_overhead);

  AtpgOptions serial;
  serial.paths_per_site = 8;
  const FaultCoverage ref = run_delay_testing(sim, faults, reduced, serial);
  for (int threads : {3, 0}) {
    AtpgOptions par = serial;
    par.exec.threads = threads;
    EXPECT_TRUE(identical(run_delay_testing(sim, faults, reduced, par), ref))
        << "threads=" << threads;
  }
}

TEST(FaultSimThreads, PreFiredTokenAbandonsRun) {
  const FaultSimulator sim = c17_sim();
  const auto faults = all_site_faults(sim, 8e3);
  AtpgOptions aopt;
  aopt.paths_per_site = 8;
  const AtpgResult atpg = generate_pulse_tests(sim, faults, aopt);

  FaultSimOptions cancelled;
  cancelled.cancel.cancel();
  EXPECT_THROW(sim.run(faults, atpg.tests, cancelled), exec::CancelledError);
}

}  // namespace
}  // namespace ppd::logic
