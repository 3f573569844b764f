// ppd::resil — the fault-tolerance machinery itself, tested under its own
// deterministic fault-injection harness: deadlines and watchdogs, the retry
// ladder, FaultPlan parsing and seam helpers, checkpoint round-trips, and
// the end-to-end sweep contracts (quarantine determinism at any thread
// count, strict-mode fail-fast, checkpoint/resume bit-identity) on the real
// coverage and faultsim sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "ppd/core/coverage.hpp"
#include "ppd/exec/cancel.hpp"
#include "ppd/exec/parallel.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/logic/faultsim.hpp"
#include "ppd/resil/checkpoint.hpp"
#include "ppd/resil/deadline.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/resil/retry.hpp"
#include "ppd/sta/interval_sta.hpp"
#include "ppd/util/error.hpp"

namespace ppd::resil {
namespace {

// ---------------------------------------------------------------- deadlines

TEST(Deadline, DefaultAndNonPositiveBudgetsNeverExpire) {
  EXPECT_TRUE(Deadline().unlimited());
  EXPECT_TRUE(Deadline::never().unlimited());
  EXPECT_TRUE(Deadline::after(0.0).unlimited());
  EXPECT_TRUE(Deadline::after(-1.0).unlimited());
  EXPECT_FALSE(Deadline().expired());
  EXPECT_GT(Deadline().remaining_seconds(), 1e6);
}

TEST(Deadline, ShortBudgetExpires) {
  const Deadline d = Deadline::after(1e-4);
  EXPECT_FALSE(d.unlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_seconds(), 0.0);
}

TEST(Watchdog, ZeroBudgetArmsNothing) {
  exec::CancelToken token;
  const Watchdog dog(token, 0.0);
  EXPECT_FALSE(dog.armed());
  EXPECT_FALSE(dog.fired());
  EXPECT_FALSE(token.cancelled());
}

TEST(Watchdog, FiresTheTokenWhenTheBudgetElapses) {
  exec::CancelToken token;
  const Watchdog dog(token, 1e-3);
  ASSERT_TRUE(dog.armed());
  for (int i = 0; i < 500 && !token.cancelled(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(dog.fired());
}

TEST(Watchdog, DestructionBeforeTheBudgetLeavesTheTokenAlone) {
  exec::CancelToken token;
  { const Watchdog dog(token, 30.0); }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(token.cancelled());
}

// ------------------------------------------------------------- retry ladder

TEST(RetryLadder, StopsAtTheFirstSuccessfulRung) {
  RetryPolicy policy;
  policy.rungs = {{"a", 2}, {"b", 3}, {"c", 1}};
  int calls = 0;
  const LadderOutcome out =
      run_ladder(policy, [&](const RetryRung& rung, int attempt) {
        ++calls;
        return rung.name == "b" && attempt == 1;
      });
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.rung, 1);
  EXPECT_EQ(out.total_attempts, 4);  // a,a,b then the winning b attempt
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(out.attempted, "a,b");
  EXPECT_EQ(take_last_ladder(), "");  // success leaves no parked trail
}

TEST(RetryLadder, ExhaustionReportsTheFullTrail) {
  RetryPolicy policy;
  policy.rungs = {{"newton", 1}, {"gmin-step", 1}};
  const LadderOutcome out =
      run_ladder(policy, [](const RetryRung&, int) { return false; });
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.rung, -1);
  EXPECT_EQ(out.total_attempts, 2);
  EXPECT_EQ(out.attempted, "newton,gmin-step");
  // The trail is parked for a quarantine handler further up the stack.
  EXPECT_EQ(take_last_ladder(), "newton,gmin-step");
  EXPECT_EQ(take_last_ladder(), "");  // take_ clears the slot
}

TEST(RetryLadder, ExpiredDeadlineThrowsTimeout) {
  RetryPolicy policy;
  policy.rungs = {{"only", 5}};
  const Deadline expired = Deadline::after(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_THROW(run_ladder(
                   policy, [](const RetryRung&, int) { return false; },
                   expired, "op recovery"),
               TimeoutError);
}

// --------------------------------------------------------------- fault plan

TEST(FaultPlan, DisabledByDefaultAndRoundTrips) {
  const FaultPlan off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.describe(), "off");

  const FaultPlan plan = FaultPlan::parse(
      "seed=13,newton=0.35,nan=0.08,item=0.2,delay=0.1:0.01,cancel-after=30");
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed, 13u);
  EXPECT_DOUBLE_EQ(plan.p_newton_nonconverge, 0.35);
  EXPECT_DOUBLE_EQ(plan.p_newton_nan, 0.08);
  EXPECT_DOUBLE_EQ(plan.p_item_fail, 0.2);
  EXPECT_DOUBLE_EQ(plan.p_item_delay, 0.1);
  EXPECT_DOUBLE_EQ(plan.delay_seconds, 0.01);
  EXPECT_EQ(plan.cancel_after_items, 30u);
  // describe() parses back to the same plan.
  const FaultPlan again = FaultPlan::parse(plan.describe());
  EXPECT_EQ(again.describe(), plan.describe());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("bogus=1"), ParseError);
  EXPECT_THROW((void)FaultPlan::parse("newton=nope"), ParseError);
}

TEST(FaultPlan, SeamsAreInertWithoutAScope) {
  EXPECT_FALSE(inject_newton_nonconvergence());
  EXPECT_FALSE(inject_newton_nan());
  EXPECT_NO_THROW(inject_item_failure());
  EXPECT_NO_THROW(inject_item_delay());
}

TEST(FaultPlan, CertainItemFailureThrowsInsideTheScope) {
  FaultPlan plan;
  plan.p_item_fail = 1.0;
  const FaultScope scope(plan, 7);
  EXPECT_THROW(inject_item_failure(), NumericalError);
}

TEST(FaultPlan, DrawsAreAPureFunctionOfSeedItemAndSite) {
  FaultPlan plan;
  plan.seed = 99;
  plan.p_newton_nonconverge = 0.5;
  const auto draw_sequence = [&](std::uint64_t item) {
    const FaultScope scope(plan, item);
    std::vector<bool> draws;
    draws.reserve(16);
    for (int i = 0; i < 16; ++i) draws.push_back(inject_newton_nonconvergence());
    return draws;
  };
  const auto a = draw_sequence(3);
  EXPECT_EQ(a, draw_sequence(3));   // re-entering the scope replays the draws
  EXPECT_NE(a, draw_sequence(4));   // another item draws independently
}

// --------------------------------------------------------------- checkpoint

TEST(Checkpoint, RoundTripsPayloadsAndQuarantine) {
  const std::string path = testing::TempDir() + "ppd_resil_ck_roundtrip.json";
  Checkpoint ck;
  ck.bind(41, 10, "round trip sweep");
  ck.record(2, "101");
  ck.record(3, "000");
  ck.record(7, "1");
  // Error text exercising the JSON string escaper.
  ck.record_quarantine({5, 55, "newton,gmin-step", "bad \"quote\"\nnewline"});
  ck.save(path);

  Checkpoint loaded = Checkpoint::load(path);
  loaded.bind(41, 10, "round trip sweep");
  EXPECT_EQ(loaded.completed(), 3u);
  ASSERT_TRUE(loaded.has(2));
  EXPECT_TRUE(loaded.has(3) && loaded.has(7));
  EXPECT_FALSE(loaded.has(0));
  EXPECT_EQ(loaded.payload(2), "101");
  EXPECT_EQ(loaded.payload(7), "1");
  const auto q = loaded.quarantine();
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0], (QuarantineEntry{5, 55, "newton,gmin-step",
                                   "bad \"quote\"\nnewline"}));
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedSweepIdentityRefusesToResume) {
  const std::string path = testing::TempDir() + "ppd_resil_ck_identity.json";
  Checkpoint ck;
  ck.bind(41, 10, "experiment A");
  ck.record(0, "1");
  ck.save(path);
  EXPECT_THROW(Checkpoint::load(path).bind(42, 10, "experiment A"), ParseError);
  EXPECT_THROW(Checkpoint::load(path).bind(41, 11, "experiment A"), ParseError);
  EXPECT_THROW(Checkpoint::load(path).bind(41, 10, "experiment B"), ParseError);
  EXPECT_NO_THROW(Checkpoint::load(path).bind(41, 10, "experiment A"));
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "ppd_resil_ck_garbage.json";
  // Not JSON; nesting deep enough to overflow a recursive reader's stack;
  // a seed that wraps 64 bits.
  for (const std::string& text :
       {std::string("not json at all"), std::string(2000000, '['),
        std::string(R"({"resil_checkpoint": 1,)"
                    R"( "seed": 99999999999999999999999, "items": 4,)"
                    R"( "context": "c", "completed": []})")}) {
    {
      std::FILE* f = std::fopen(path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fputs(text.c_str(), f);
      std::fclose(f);
    }
    EXPECT_THROW((void)Checkpoint::load(path), ParseError)
        << text.substr(0, 40);
  }
  EXPECT_THROW((void)Checkpoint::load(path + ".missing"), ParseError);
  std::remove(path.c_str());
}

// ------------------------------------------------- exec quarantine hook

TEST(ExecQuarantineHook, SwallowsOfferedFailuresAndKeepsSweeping) {
  exec::ParallelOptions par;
  par.threads = 3;
  std::atomic<int> offered{0};
  par.on_item_error = [&](std::size_t, const std::exception_ptr&) {
    offered.fetch_add(1);
    return true;
  };
  std::vector<char> done(20, 0);
  exec::parallel_for(
      done.size(),
      [&](std::size_t i) {
        if (i % 5 == 0) throw NumericalError("boom");
        done[i] = 1;
      },
      par);
  EXPECT_EQ(offered.load(), 4);
  for (std::size_t i = 0; i < done.size(); ++i)
    EXPECT_EQ(done[i], i % 5 == 0 ? 0 : 1) << "i=" << i;
}

TEST(ExecQuarantineHook, DecliningTheOfferFailsTheSweep) {
  exec::ParallelOptions par;
  par.on_item_error = [](std::size_t, const std::exception_ptr&) {
    return false;
  };
  EXPECT_THROW(exec::parallel_for(
                   4, [](std::size_t) { throw NumericalError("boom"); }, par),
               NumericalError);
}

TEST(ExecQuarantineHook, CancellationIsNeverOfferedToTheHook) {
  exec::ParallelOptions par;
  par.cancel.cancel();
  par.on_item_error = [](std::size_t, const std::exception_ptr&) {
    ADD_FAILURE() << "CancelledError must bypass the quarantine hook";
    return true;
  };
  EXPECT_THROW(exec::parallel_for(4, [](std::size_t) {}, par),
               exec::CancelledError);
}

// --------------------------------------------- coverage sweep contracts

core::PathFactory rop_factory() {
  core::PathFactory f;
  f.options.kinds.assign(3, cells::GateKind::kInv);
  faults::PathFaultSpec spec;
  spec.kind = faults::FaultKind::kExternalRopOutput;
  spec.stage = 1;
  f.fault = spec;
  return f;
}

core::PulseTestCalibration pinned_calibration() {
  core::PulseTestCalibration cal;
  cal.w_in = 1.5e-10;
  cal.w_th = 1.1e-10;
  return cal;
}

core::CoverageOptions chaos_coverage_options() {
  core::CoverageOptions o;
  o.samples = 6;
  o.seed = 2007;
  o.variation = mc::VariationModel::uniform_sigma(0.05);
  o.resistances = {2e3, 10e3, 40e3};
  o.resil.quarantine = true;
  o.resil.faults = FaultPlan::parse("seed=5,item=0.3");
  return o;
}

TEST(CoverageResilience, QuarantineIsDeterministicAtAnyThreadCount) {
  const core::PathFactory f = rop_factory();
  const core::PulseTestCalibration cal = pinned_calibration();
  core::CoverageOptions copt = chaos_coverage_options();
  copt.threads = 1;
  const core::CoverageResult serial = core::run_pulse_coverage(f, cal, copt);
  ASSERT_GT(serial.n_quarantined(), 0u);
  ASSERT_LT(serial.n_quarantined(), serial.quarantine.items);
  for (int threads : {2, 0}) {
    copt.threads = threads;
    const core::CoverageResult par = core::run_pulse_coverage(f, cal, copt);
    EXPECT_EQ(par.coverage, serial.coverage) << "threads=" << threads;
    EXPECT_EQ(par.simulations, serial.simulations) << "threads=" << threads;
    EXPECT_EQ(par.quarantine.entries, serial.quarantine.entries)
        << "threads=" << threads;
  }
}

TEST(CoverageResilience, EmptyQuarantineLeavesTheNumericsUntouched) {
  const core::PathFactory f = rop_factory();
  const core::PulseTestCalibration cal = pinned_calibration();
  core::CoverageOptions copt = chaos_coverage_options();
  copt.resil.faults = {};  // quarantine armed, nothing injected
  const core::CoverageResult guarded = core::run_pulse_coverage(f, cal, copt);
  EXPECT_EQ(guarded.n_quarantined(), 0u);
  core::CoverageOptions strict = chaos_coverage_options();
  strict.resil = {};  // the all-defaults policy: pre-resil behaviour
  const core::CoverageResult plain = core::run_pulse_coverage(f, cal, strict);
  EXPECT_EQ(guarded.coverage, plain.coverage);
  EXPECT_EQ(guarded.simulations, plain.simulations);
}

TEST(CoverageResilience, StrictModeFailsFastUnderInjection) {
  const core::PathFactory f = rop_factory();
  core::CoverageOptions copt = chaos_coverage_options();
  copt.resil.quarantine = false;  // --strict
  EXPECT_THROW(core::run_pulse_coverage(f, pinned_calibration(), copt),
               NumericalError);
}

TEST(CoverageResilience, NonConvergenceErrorNamesCircuitAndRungs) {
  const core::PathFactory f = rop_factory();
  core::CoverageOptions copt = chaos_coverage_options();
  copt.resil.quarantine = false;
  // Every Newton solve reports non-convergence: the whole homotopy ladder
  // runs dry and the error must say which circuit and which rungs.
  copt.resil.faults = FaultPlan::parse("seed=1,newton=1");
  try {
    (void)core::run_pulse_coverage(f, pinned_calibration(), copt);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("operating point did not converge"), std::string::npos)
        << what;
    EXPECT_NE(what.find("path INV-INV-INV"), std::string::npos) << what;
    EXPECT_NE(what.find("rungs attempted: newton,gmin-step,source-step"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("unknowns"), std::string::npos) << what;
  }
}

TEST(CoverageResilience, SweepBudgetConvertsToTimeoutError) {
  const core::PathFactory f = rop_factory();
  core::CoverageOptions copt = chaos_coverage_options();
  // Every item sleeps 50 ms; the sweep budget expires long before the
  // 18-item sweep can finish, so the watchdog must cancel it.
  copt.resil.faults = FaultPlan::parse("seed=1,delay=1:0.05");
  copt.resil.sweep_budget_seconds = 0.02;
  copt.threads = 2;
  EXPECT_THROW(core::run_pulse_coverage(f, pinned_calibration(), copt),
               TimeoutError);
}

/// One run of a checkpointing sweep, flattened for comparison: its numbers
/// (coverage matrix + valid count, or the per-fault verdicts) and its
/// quarantine entries.
struct SweepRun {
  std::vector<double> values;
  std::vector<QuarantineEntry> quarantine;
};

/// A sweep that checkpoints, with the identity its checkpoint is bound to.
struct CheckpointedSweep {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t items = 0;
  std::string context;
  std::function<SweepRun(const SweepPolicy&, exec::CancelToken)> run;
};

SweepRun coverage_run(const core::CoverageResult& res) {
  SweepRun out;
  for (const auto& row : res.coverage)
    out.values.insert(out.values.end(), row.begin(), row.end());
  out.values.push_back(static_cast<double>(res.simulations));
  out.quarantine = res.quarantine.entries;
  return out;
}

std::vector<CheckpointedSweep> checkpointed_sweeps() {
  const core::CoverageOptions coverage = chaos_coverage_options();
  const auto coverage_options = [coverage](const SweepPolicy& policy,
                                           exec::CancelToken cancel) {
    core::CoverageOptions o = coverage;
    o.threads = 2;
    o.resil = policy;
    o.cancel = std::move(cancel);
    return o;
  };
  const std::size_t coverage_items =
      coverage.resistances.size() * static_cast<std::size_t>(coverage.samples);
  core::DelayTestCalibration delay_cal;
  // A clock at which rows mix verdicts (x0.9 detects at 2 kOhm, x1.0 does
  // not), so a wrong resumed payload shows.
  delay_cal.t_nominal = 0.3e-9;

  const auto nl = std::make_shared<logic::Netlist>(logic::c17());
  const auto sim = std::make_shared<logic::FaultSimulator>(
      *nl, logic::GateTimingLibrary::generic());
  const sta::IntervalStaResult sta = sta::run_interval_sta(*nl, sim->library());
  const auto faults = std::make_shared<std::vector<logic::LogicFault>>(
      logic::enumerate_rop_faults(sta::slack_sites(*nl, sta, 0.0), 8e3));
  logic::AtpgOptions aopt;
  aopt.paths_per_site = 8;
  const auto tests = std::make_shared<std::vector<logic::PulseTest>>(
      logic::generate_pulse_tests(*sim, *faults, aopt).tests);

  return {
      {"pulse coverage", coverage.seed, coverage_items,
       "pulse-test coverage MC sweep",
       [=](const SweepPolicy& policy, exec::CancelToken cancel) {
         return coverage_run(core::run_pulse_coverage(
             rop_factory(), pinned_calibration(),
             coverage_options(policy, std::move(cancel))));
       }},
      {"delay coverage", coverage.seed, coverage_items,
       "delay-test coverage MC sweep",
       [=](const SweepPolicy& policy, exec::CancelToken cancel) {
         return coverage_run(core::run_delay_coverage(
             rop_factory(), delay_cal,
             coverage_options(policy, std::move(cancel))));
       }},
      {"fault simulation", 0, faults->size(), "pulse faultsim over <c17>",
       // nl rides along: the simulator refers to it.
       [nl, sim, faults, tests](const SweepPolicy& policy,
                                exec::CancelToken cancel) {
         logic::FaultSimOptions o;
         o.threads = 2;
         o.resil = policy;
         o.cancel = std::move(cancel);
         const logic::FaultCoverage cov = sim->run(*faults, *tests, o);
         SweepRun out;
         out.values.assign(cov.detected.begin(), cov.detected.end());
         out.values.push_back(static_cast<double>(cov.detected_count));
         out.quarantine = cov.quarantine.entries;
         return out;
       }},
  };
}

TEST(CoverageResilience, CheckpointResumeIsBitIdentical) {
  const std::string path = testing::TempDir() + "ppd_resil_resume.json";
  for (const CheckpointedSweep& sweep : checkpointed_sweeps()) {
    SCOPED_TRACE(sweep.name);
    std::remove(path.c_str());
    SweepPolicy base;
    base.quarantine = true;
    base.faults = FaultPlan::parse("seed=5,item=0.3");
    const SweepRun uninterrupted = sweep.run(base, exec::CancelToken());
    ASSERT_FALSE(uninterrupted.quarantine.empty());

    // Interrupt the sweep after 5 completed items; the checkpoint must be
    // saved on the way out.
    SweepPolicy interrupted = base;
    interrupted.checkpoint_path = path;
    interrupted.faults = FaultPlan::parse("seed=5,item=0.3,cancel-after=5");
    EXPECT_THROW(sweep.run(interrupted, exec::CancelToken()),
                 exec::CancelledError);
    {
      Checkpoint ck = Checkpoint::load(path);
      ck.bind(sweep.seed, sweep.items, sweep.context);
      EXPECT_GE(ck.completed(), 5u);
      EXPECT_LT(ck.completed(), sweep.items);
    }

    // Resume: cached items merge with fresh ones into the exact same result
    // and the same quarantine entries (quarantined items run again).
    SweepPolicy resumed = base;
    resumed.checkpoint_path = path;
    resumed.resume = true;
    const SweepRun merged = sweep.run(resumed, exec::CancelToken());
    EXPECT_EQ(merged.values, uninterrupted.values);
    EXPECT_EQ(merged.quarantine, uninterrupted.quarantine);
  }
  std::remove(path.c_str());
}

TEST(CoverageResilience, ResumedVerdictRowOfTheWrongLengthIsRefused) {
  // A checkpoint of the right identity whose item 0 holds one verdict where
  // the sweep has three multipliers: reading it would run off the row.
  const std::string path = testing::TempDir() + "ppd_resil_short_row.json";
  core::CoverageOptions copt = chaos_coverage_options();
  copt.resil.faults = {};
  {
    Checkpoint ck;
    ck.bind(copt.seed,
            copt.resistances.size() * static_cast<std::size_t>(copt.samples),
            "pulse-test coverage MC sweep");
    ck.record(0, "1");
    ck.save(path);
  }
  copt.resil.checkpoint_path = path;
  copt.resil.resume = true;
  EXPECT_THROW(
      core::run_pulse_coverage(rop_factory(), pinned_calibration(), copt),
      ParseError);
  std::remove(path.c_str());
}

// ------------------------------------------------- faultsim sweep contract

TEST(FaultSimResilience, QuarantineIsDeterministicAndDropsTheDenominator) {
  const logic::Netlist nl = logic::c17();
  const logic::FaultSimulator sim(nl, logic::GateTimingLibrary::generic());
  const sta::IntervalStaResult sta =
      sta::run_interval_sta(nl, sim.library());
  const auto faults =
      logic::enumerate_rop_faults(sta::slack_sites(nl, sta, 0.0), 8e3);
  logic::AtpgOptions aopt;
  aopt.paths_per_site = 8;
  const logic::AtpgResult atpg = logic::generate_pulse_tests(sim, faults, aopt);
  ASSERT_FALSE(atpg.tests.empty());

  logic::FaultSimOptions opt;
  opt.resil.quarantine = true;
  opt.resil.faults = FaultPlan::parse("seed=3,item=0.4");
  const logic::FaultCoverage serial = sim.run(faults, atpg.tests, opt);
  ASSERT_GT(serial.n_quarantined(), 0u);
  ASSERT_LT(serial.n_quarantined(), faults.size());
  // Quarantined faults leave the coverage denominator.
  const logic::FaultCoverage clean = sim.run(faults, atpg.tests, {});
  EXPECT_GT(serial.coverage(faults.size()), 0.0);
  EXPECT_EQ(clean.n_quarantined(), 0u);
  for (int threads : {2, 0}) {
    logic::FaultSimOptions par = opt;
    par.threads = threads;
    const logic::FaultCoverage got = sim.run(faults, atpg.tests, par);
    EXPECT_EQ(got.detected, serial.detected) << "threads=" << threads;
    EXPECT_EQ(got.quarantine.entries, serial.quarantine.entries)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ppd::resil
