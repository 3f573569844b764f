// Engine micro/meso benchmarks (google-benchmark): LU refactor throughput,
// transistor-level transient cost vs path length, logic-level event
// simulation, and path sensitization — the costs that size every
// Monte-Carlo experiment in this repository. A thread-scaling section runs
// first and prints machine-readable JSON rows for the perf trajectory.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <thread>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/core/coverage.hpp"
#include "ppd/core/measure.hpp"
#include "ppd/core/path_screen.hpp"
#include "ppd/core/pulse_test.hpp"
#include "ppd/core/rmin.hpp"
#include "ppd/linalg/dense.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/logic/sensitize.hpp"
#include "ppd/logic/sim.hpp"
#include "ppd/mc/rng.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/run.hpp"
#include "ppd/util/error.hpp"

namespace {

using namespace ppd;

// ---------------------------------------------------------------------------
// Thread-scaling section: a fixed 50-sample delay-coverage sweep (the shape
// of every Fig. 6-9 experiment) at 1/2/4/hw threads. Rows are JSON so the
// perf trajectory is machine-readable; `identical_to_serial` asserts the
// ppd::exec determinism contract on the full CoverageResult.
// ---------------------------------------------------------------------------

void run_thread_scaling() {
  core::PathFactory factory;
  factory.options.kinds.assign(3, cells::GateKind::kInv);
  faults::PathFaultSpec fault;
  fault.kind = faults::FaultKind::kExternalRopOutput;
  fault.stage = 1;
  factory.fault = fault;

  // Fixed calibration: the section measures the sweep, not the calibration.
  core::DelayTestCalibration cal;
  cal.t_nominal = 0.6e-9;

  core::CoverageOptions copt;
  copt.samples = 50;
  copt.seed = 2007;
  copt.variation = mc::VariationModel::uniform_sigma(0.05);
  copt.resistances = {2e3, 8e3, 32e3, 128e3};

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::set<int> counts{1, 2, 4, static_cast<int>(hw)};

  // Standard meta row first, so a JSON consumer can key the perf trajectory
  // on seed / build flags / timestamp without scraping benchmark output.
  std::printf("{\"section\":\"meta\",\"meta\":%s}\n",
              obs::run_meta_json(copt.seed, 0).c_str());

  core::CoverageResult serial;
  double serial_wall = 0.0;
  for (int threads : counts) {
    copt.threads = threads;
    // Fresh cache per run: this section measures thread scaling, and a
    // warm solve cache would otherwise let every run after the first
    // replay the previous run's measurements.
    cache::SolveCache::global().clear();
    const auto start = std::chrono::steady_clock::now();
    const core::CoverageResult res = run_delay_coverage(factory, cal, copt);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (threads == 1) {
      serial = res;
      serial_wall = wall;
    }
    const bool identical = res.coverage == serial.coverage &&
                           res.simulations == serial.simulations;
    std::printf(
        "{\"section\":\"thread_scaling\",\"workload\":\"delay_coverage\","
        "\"samples\":%d,\"resistances\":%zu,\"hardware_threads\":%u,"
        "\"threads\":%d,\"wall_s\":%.4f,\"speedup_vs_1\":%.3f,"
        "\"identical_to_serial\":%s}\n",
        copt.samples, copt.resistances.size(), hw, threads, wall,
        serial_wall / wall, identical ? "true" : "false");
  }
}

// ---------------------------------------------------------------------------
// Solve-cache section: the Fig. 7/11 inner loop (pulse coverage + r_min
// bisection over the same MC population) cold vs warm. The cold pass runs
// against an empty cache; the warm pass replays the identical workload and
// hits the memoized measurements and warm-started operating points. The JSON
// row carries the speedup (target >= 1.5x) and asserts bit-identity.
// ---------------------------------------------------------------------------

void run_solve_cache_section() {
  core::PathFactory factory;
  factory.options.kinds.assign(3, cells::GateKind::kInv);
  faults::PathFaultSpec fault;
  fault.kind = faults::FaultKind::kExternalRopOutput;
  fault.stage = 1;
  factory.fault = fault;

  core::PulseCalibrationOptions popt;
  popt.samples = 4;
  popt.seed = 2007;
  popt.variation = mc::VariationModel::uniform_sigma(0.05);
  popt.w_in_grid = core::linspace(0.10e-9, 0.60e-9, 11);

  core::CoverageOptions copt;
  copt.samples = 12;
  copt.seed = 2007;
  copt.variation = mc::VariationModel::uniform_sigma(0.05);
  copt.resistances = {2e3, 8e3, 32e3, 128e3};
  copt.threads = 1;  // measure cache reuse, not thread scaling

  core::RminOptions ropt;
  ropt.samples = 6;
  ropt.seed = 2007;
  ropt.variation = mc::VariationModel::uniform_sigma(0.05);
  ropt.r_lo = 500.0;
  ropt.r_hi = 500e3;
  ropt.bisection_steps = 6;
  ropt.threads = 1;

  const auto workload = [&] {
    const core::PulseTestCalibration cal = core::calibrate_pulse_test(factory, popt);
    const core::CoverageResult cov = core::run_pulse_coverage(factory, cal, copt);
    const core::RminResult rmin = core::find_r_min(factory, cal, ropt);
    return std::pair<core::CoverageResult, core::RminResult>(cov, rmin);
  };
  const auto timed = [&] {
    const auto start = std::chrono::steady_clock::now();
    auto result = workload();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::pair<double, decltype(result)>(wall, std::move(result));
  };

  cache::SolveCache& cache = cache::SolveCache::global();
  cache.clear();
  const auto [cold_wall, cold] = timed();
  const auto cold_totals = cache.totals();
  const auto [warm_wall, warm] = timed();
  const auto warm_totals = cache.totals();

  const bool identical =
      cold.first.coverage == warm.first.coverage &&
      cold.first.simulations == warm.first.simulations &&
      cold.second.r_min == warm.second.r_min &&
      cold.second.detectable == warm.second.detectable;
  std::printf(
      "{\"section\":\"solve_cache\",\"workload\":\"calibrate+coverage+rmin\","
      "\"cold_wall_s\":%.4f,\"warm_wall_s\":%.4f,\"speedup\":%.3f,"
      "\"cold_hits\":%llu,\"warm_hits\":%llu,\"misses\":%llu,"
      "\"entries\":%zu,\"identical\":%s}\n",
      cold_wall, warm_wall, cold_wall / warm_wall,
      static_cast<unsigned long long>(cold_totals.hits),
      static_cast<unsigned long long>(warm_totals.hits - cold_totals.hits),
      static_cast<unsigned long long>(warm_totals.misses),
      warm_totals.entries, identical ? "true" : "false");
}

// ---------------------------------------------------------------------------
// Path-screen section: prune effectiveness of the ppd::sta static screen on
// the constrained-generator c432-class workload (the same workload
// tests/sta/screen_validation_test.cpp cross-validates; keep in sync). The
// brute-force flow calibrates every candidate path; the screened flow only
// the statically surviving ones. The JSON row carries candidates
// before/after, the SPICE transients saved (target >= 3x), and asserts the
// safety contract: zero missed detections and bit-identical kept results.
// ---------------------------------------------------------------------------

void run_path_screen_section() {
  const logic::Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const auto lib = logic::GateTimingLibrary::generic();

  core::CandidateSelectionOptions copt;
  copt.max_candidates = 12;
  copt.min_length = 3;
  copt.screen_options.w_in_max = 0.155e-9;
  copt.screen_options.w_th_floor = 50e-12;
  copt.screen_options.margin = 0.10;
  const core::CandidateSelection sel = core::select_path_candidates(nl, lib, copt);

  core::PulseCalibrationOptions popt;
  popt.samples = 3;
  popt.seed = 2007;
  popt.variation = mc::VariationModel::uniform_sigma(0.05);
  popt.w_in_grid = core::linspace(0.07e-9, copt.screen_options.w_in_max, 7);
  popt.w_th_floor = copt.screen_options.w_th_floor;

  struct Outcome {
    bool feasible = false;
    double w_in = 0.0, w_th = 0.0;
  };
  const auto characterize = [&](const core::PathCandidate& c) {
    core::PathFactory factory;
    factory.options.kinds = c.kinds;
    faults::PathFaultSpec fault;
    fault.kind = faults::FaultKind::kExternalRopOutput;
    fault.stage = c.fault_stage;
    factory.fault = fault;
    Outcome out;
    try {
      const auto cal = core::calibrate_pulse_test(factory, popt);
      out.feasible = true;
      out.w_in = cal.w_in;
      out.w_th = cal.w_th;
    } catch (const ppd::NumericalError&) {
    }
    return out;
  };
  auto& sims = obs::counter("spice.transient.runs");

  // Brute force: every candidate path goes to SPICE calibration.
  cache::SolveCache::global().clear();
  const std::uint64_t brute_sims0 = sims.value();
  std::vector<Outcome> brute;
  for (const auto& c : sel.candidates) brute.push_back(characterize(c));
  const std::uint64_t sims_brute = sims.value() - brute_sims0;

  // Screened: only the statically surviving paths do.
  cache::SolveCache::global().clear();
  const std::uint64_t screened_sims0 = sims.value();
  std::vector<Outcome> kept;
  for (std::size_t idx : sel.kept) kept.push_back(characterize(sel.candidates[idx]));
  const std::uint64_t sims_screened = sims.value() - screened_sims0;

  // Safety contract, cross-checked right here: a screened-out path that
  // calibrated in the brute-force flow is a missed detection; a kept path
  // whose results differ breaks bit-identity.
  std::size_t missed = 0;
  for (std::size_t i = 0, k = 0; i < sel.candidates.size(); ++i) {
    const bool is_kept = k < sel.kept.size() && sel.kept[k] == i;
    if (!is_kept && brute[i].feasible) ++missed;
    if (is_kept) ++k;
  }
  bool identical = true;
  for (std::size_t k = 0; k < sel.kept.size(); ++k) {
    const Outcome& b = brute[sel.kept[k]];
    identical = identical && b.feasible == kept[k].feasible &&
                b.w_in == kept[k].w_in && b.w_th == kept[k].w_th;
  }

  std::printf(
      "{\"section\":\"path_screen\",\"workload\":\"c432_constrained_generator\","
      "\"w_in_max_s\":%.3e,\"candidates\":%zu,\"kept\":%zu,\"pulse_dead\":%zu,"
      "\"sims_brute\":%llu,\"sims_screened\":%llu,\"saved_ratio\":%.2f,"
      "\"missed_detections\":%zu,\"identical\":%s}\n",
      copt.screen_options.w_in_max, sel.candidates.size(), sel.kept.size(),
      sel.pulse_dead, static_cast<unsigned long long>(sims_brute),
      static_cast<unsigned long long>(sims_screened),
      sims_screened ? static_cast<double>(sims_brute) /
                          static_cast<double>(sims_screened)
                    : 0.0,
      missed, identical ? "true" : "false");
}

void BM_LuRefactorSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Circuit-like pattern: a ladder (diagonal + neighbours) plus one sparse
  // long-range coupling per row — random dense-ish patterns would just
  // measure fill-in, which MNA matrices don't exhibit.
  mc::Rng rng(7);
  linalg::DenseMatrix a(n, n);
  std::vector<std::size_t> cells;
  const auto add = [&](std::size_t r, std::size_t c, double v) {
    a(r, c) += v;
    cells.push_back(c * n + r);
  };
  for (std::size_t r = 0; r < n; ++r) {
    add(r, r, 4.0);
    if (r > 0) add(r, r - 1, rng.uniform(-1.0, 1.0));
    if (r + 1 < n) add(r, r + 1, rng.uniform(-1.0, 1.0));
    add(r, rng.below(n), rng.uniform(-0.2, 0.2));
  }
  std::vector<double> rhs(n, 1.0), x;
  // One factor learns the pattern; each timed iteration is what a Newton
  // iteration does: clear, scatter the values, refactor on the learned
  // pattern, solve.
  linalg::DenseLuWorkspace ws;
  ws.set_structure(n, cells);
  linalg::DenseMatrix lu = a;
  ws.factor(lu);
  for (auto _ : state) {
    ws.clear(lu);
    double* d = lu.data();
    for (std::size_t c : cells) d[c] = a.data()[c];
    ws.factor(lu);
    ws.solve_into(rhs, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.counters["full_factors"] = static_cast<double>(ws.stats().full);
}
BENCHMARK(BM_LuRefactorSolve)->Arg(48)->Arg(192)->Arg(768);

void BM_PathTransient(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::PathFactory f;
  f.options.kinds.assign(n, cells::GateKind::kInv);
  core::SimSettings sim;
  // Every iteration runs the same transient; with the solve cache on, all
  // but the first would time a cache hit instead of the engine.
  const bool cache_was_enabled = cache::cache_enabled();
  cache::set_cache_enabled(false);
  for (auto _ : state) {
    core::PathInstance inst = core::make_instance(f, 0.0, nullptr);
    benchmark::DoNotOptimize(
        core::output_pulse_width(inst.path, core::PulseKind::kH, 0.4e-9, sim));
  }
  cache::set_cache_enabled(cache_was_enabled);
}
BENCHMARK(BM_PathTransient)->Arg(3)->Arg(7)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_LogicEventSim(benchmark::State& state) {
  const logic::Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  std::vector<logic::Stimulus> stim(nl.inputs().size());
  for (std::size_t i = 0; i < stim.size(); ++i)
    stim[i] = logic::Stimulus::pulse(false, 1e-9 + static_cast<double>(i) * 1e-11,
                                     0.4e-9);
  for (auto _ : state)
    benchmark::DoNotOptimize(logic::simulate(nl, stim));
}
BENCHMARK(BM_LogicEventSim)->Unit(benchmark::kMicrosecond);

void BM_SensitizePath(benchmark::State& state) {
  const logic::Netlist nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
  const auto paths = logic::enumerate_paths_through(nl, nl.find("G110"), 24);
  for (auto _ : state) {
    int ok = 0;
    for (const auto& p : paths)
      if (logic::sensitize_path(nl, p).ok) ++ok;
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SensitizePath)->Unit(benchmark::kMicrosecond);

void BM_CircuitBuild(benchmark::State& state) {
  core::PathFactory f;
  f.options = cells::seven_gate_path();
  for (auto _ : state) {
    core::PathInstance inst = core::make_instance(f, 0.0, nullptr);
    benchmark::DoNotOptimize(inst.path.netlist().circuit().device_count());
  }
}
BENCHMARK(BM_CircuitBuild)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Obs flags come off first; google-benchmark rejects flags it does not
  // know, so they must never reach Initialize.
  ppd::obs::ScopedRun run(ppd::obs::extract_run_options(argc, argv));
  run.set_meta(2007, 0);
  run_thread_scaling();
  run_solve_cache_section();
  run_path_screen_section();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
