#include "ppd/logic/faultsim.hpp"

#include <algorithm>

#include "ppd/exec/parallel.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/util/error.hpp"

namespace ppd::logic {

const char* logic_fault_kind_name(LogicFaultKind kind) {
  switch (kind) {
    case LogicFaultKind::kInternalRopPullUp: return "internal-ROP-pullup";
    case LogicFaultKind::kInternalRopPullDown: return "internal-ROP-pulldown";
    case LogicFaultKind::kExternalRop: return "external-ROP";
  }
  return "?";
}

FaultSimulator::FaultSimulator(const Netlist& netlist, GateTimingLibrary library,
                               FaultTimingCoefficients coefficients)
    : netlist_(netlist), library_(std::move(library)), coeff_(coefficients) {}

GateTiming FaultSimulator::faulty_timing(const Gate& gate, const LogicFault& fault,
                                         bool positive_output_pulse) const {
  GateTiming t = library_.timing(gate.kind);
  const double r = fault.resistance;
  switch (fault.kind) {
    case LogicFaultKind::kInternalRopPullUp:
      // Slows rising outputs: a positive output pulse leads with the
      // crippled edge and shrinks at any width; the opposite polarity is
      // barely touched.
      if (positive_output_pulse) {
        t.w_block += r * coeff_.c_internal;
        t.w_pass += r * coeff_.c_internal;
        t.shrink += r * coeff_.c_internal_shrink;
        t.delay_rise += r * coeff_.c_delay;
      }
      break;
    case LogicFaultKind::kInternalRopPullDown:
      if (!positive_output_pulse) {
        t.w_block += r * coeff_.c_internal;
        t.w_pass += r * coeff_.c_internal;
        t.shrink += r * coeff_.c_internal_shrink;
        t.delay_fall += r * coeff_.c_delay;
      }
      break;
    case LogicFaultKind::kExternalRop:
      // Both edges slowed: narrow pulses die, wide pulses lose only a
      // residual amount, plus delay on both edges.
      t.w_block += r * coeff_.c_external;
      t.w_pass += r * coeff_.c_external;
      t.shrink += r * coeff_.c_external_shrink;
      t.delay_rise += r * coeff_.c_delay;
      t.delay_fall += r * coeff_.c_delay;
      break;
  }
  return t;
}

double FaultSimulator::response(const PulseTest& test,
                                const LogicFault* fault) const {
  std::vector<LogicFault> one;
  if (fault != nullptr) one.push_back(*fault);
  return response_multi(test, one);
}

double FaultSimulator::response_multi(const PulseTest& test,
                                      const std::vector<LogicFault>& faults) const {
  PPD_REQUIRE(test.path.nets.size() >= 2, "test path too short");
  double w = test.w_in;
  // Polarity of the pulse at the *output* of each traversed gate.
  bool positive = test.positive_pulse;
  for (std::size_t i = 1; i < test.path.nets.size(); ++i) {
    const NetId id = test.path.nets[i];
    const Gate& g = netlist_.gate(id);
    if (logic_kind_inverting(g.kind)) positive = !positive;
    GateTiming t = library_.timing(g.kind);
    for (const LogicFault& f : faults)
      if (f.gate == id) {
        // Compose co-located defects by stacking their degradations.
        const GateTiming& base = library_.timing(g.kind);
        const GateTiming ft = faulty_timing(g, f, positive);
        t.w_block += ft.w_block - base.w_block;
        t.w_pass += ft.w_pass - base.w_pass;
        t.shrink += ft.shrink - base.shrink;
        t.delay_rise += ft.delay_rise - base.delay_rise;
        t.delay_fall += ft.delay_fall - base.delay_fall;
      }
    w = gate_pulse_out(t, w);
    if (w <= 0.0) {
      // Depth (in gates from the pulse source) at which the pulse died —
      // the paper's "pulse propagation dies out" signature. Linear-ish bins
      // up to 128 gates resolve the typical benchmark path lengths.
      if (obs::metrics_enabled()) {
        obs::counter("logic.pulse_deaths").add();
        obs::histogram("logic.pulse_death_depth", {1.0, 128.0, 14})
            .record(static_cast<double>(i));
      }
      return 0.0;
    }
  }
  return w;
}

bool FaultSimulator::detects(const PulseTest& test, const LogicFault& fault) const {
  // The fault must sit on the tested path (a series open off the sensitized
  // path does not disturb the pulse in this model).
  const bool on_path =
      std::find(test.path.nets.begin() + 1, test.path.nets.end(), fault.gate) !=
      test.path.nets.end();
  if (!on_path) return false;
  const bool hit = response(test, &fault) < test.w_th;
  if (obs::metrics_enabled()) {
    obs::counter("logic.verdicts").add();
    if (hit) obs::counter("logic.detections").add();
  }
  return hit;
}

namespace {

exec::ParallelOptions parallel_options(const FaultSimOptions& options,
                                       const Netlist& netlist,
                                       const char* what) {
  exec::ParallelOptions par;
  par.threads = options.threads;
  par.cancel = options.cancel;
  // Logic-level verdicts are microseconds each — batch them so the cursor
  // claim does not dominate.
  par.grain = 8;
  par.context = netlist.source().empty()
                    ? std::string(what)
                    : std::string(what) + " over " + netlist.source();
  return par;
}

}  // namespace

FaultCoverage FaultSimulator::run(const std::vector<LogicFault>& faults,
                                  const std::vector<PulseTest>& tests,
                                  const FaultSimOptions& exec_opt) const {
  const obs::Span span("logic.faultsim");
  const exec::ParallelOptions par =
      parallel_options(exec_opt, netlist_, "pulse faultsim");
  // No RNG here (seed 0), so the checkpoint identity key is just (items,
  // context).
  resil::SweepOutcome sweep = resil::guarded_map(
      exec_opt.resil,
      {.items = faults.size(), .context = par.context,
       .domain = "logic.faultsim"},
      par, [&](std::size_t f) {
        for (const PulseTest& t : tests)
          if (detects(t, faults[f])) return std::string("1");
        return std::string("0");
      });
  FaultCoverage cov;
  cov.detected.assign(faults.size(), 0);
  for (std::size_t f = 0; f < faults.size(); ++f)
    cov.detected[f] = sweep.payloads[f] == "1" ? 1 : 0;
  cov.quarantine = std::move(sweep.quarantine);
  for (char d : cov.detected)
    if (d) ++cov.detected_count;
  return cov;
}

std::vector<LogicFault> enumerate_rop_faults(const std::vector<NetId>& sites,
                                             double r) {
  PPD_REQUIRE(r > 0.0, "fault resistance must be positive");
  std::vector<LogicFault> faults;
  faults.reserve(sites.size() * 3);
  for (NetId s : sites) {
    for (LogicFaultKind k :
         {LogicFaultKind::kInternalRopPullUp, LogicFaultKind::kInternalRopPullDown,
          LogicFaultKind::kExternalRop}) {
      LogicFault f;
      f.gate = s;
      f.kind = k;
      f.resistance = r;
      faults.push_back(f);
    }
  }
  return faults;
}

namespace {

/// Fault-free width plan for a path: w_in at the asymptotic onset of the
/// chain transfer curve, w_th guarded below the resulting output width.
/// Returns nullopt when the chain cannot support a feasible pair.
std::optional<std::pair<double, double>> plan_widths(const FaultSimulator& sim,
                                                     const Path& path,
                                                     const AtpgOptions& opt) {
  // A slope needs two grid points; w_in.size() - 1 below would wrap at 0.
  if (opt.w_grid_points < 2) return std::nullopt;
  const auto kinds = path_kinds(sim.netlist(), path);
  // Discrete transfer curve of the fault-free chain.
  std::vector<double> w_in(opt.w_grid_points), w_out(opt.w_grid_points);
  for (std::size_t i = 0; i < opt.w_grid_points; ++i) {
    w_in[i] = opt.w_in_max * static_cast<double>(i + 1) /
              static_cast<double>(opt.w_grid_points);
    w_out[i] = chain_pulse_out(sim.library(), kinds, w_in[i]);
  }
  // First grid point in the asymptotic stretch (slope within 15% of 1).
  std::optional<std::size_t> onset;
  for (std::size_t i = w_in.size() - 1; i-- > 0;) {
    const double slope = (w_out[i + 1] - w_out[i]) / (w_in[i + 1] - w_in[i]);
    if (std::abs(slope - 1.0) <= 0.15 && w_out[i] > 0.0)
      onset = i;
    else
      break;
  }
  if (!onset.has_value()) return std::nullopt;
  for (std::size_t c = *onset; c < w_in.size(); ++c) {
    const double w_th = w_out[c] / (1.0 + opt.sensor_guard);
    if (w_th >= opt.w_th_floor) return std::pair{w_in[c], w_th};
  }
  return std::nullopt;
}

}  // namespace

std::vector<PulseTest> compact_tests(const FaultSimulator& sim,
                                     const std::vector<LogicFault>& faults,
                                     std::vector<PulseTest> tests,
                                     const FaultSimOptions& exec_opt) {
  const obs::Span span("logic.compact_tests");
  const std::size_t tests_in = tests.size();
  // Detection matrix, one row per test, rows computed in parallel.
  std::vector<std::vector<char>> hits(tests.size());
  exec::ParallelOptions par =
      parallel_options(exec_opt, sim.netlist(), "test compaction");
  par.grain = 1;  // a row already covers the whole fault list
  exec::SweepStats stats;
  exec::parallel_for(
      tests.size(),
      [&](std::size_t t) {
        hits[t].assign(faults.size(), 0);
        for (std::size_t f = 0; f < faults.size(); ++f)
          hits[t][f] = sim.detects(tests[t], faults[f]) ? 1 : 0;
      },
      par, &stats);
  exec::record_sweep("logic.compaction", stats);

  std::vector<char> keep(tests.size(), 1);
  // Reverse pass: drop a test when every fault it detects is also detected
  // by another kept test.
  for (std::size_t t = tests.size(); t-- > 0;) {
    bool redundant = true;
    for (std::size_t f = 0; f < faults.size() && redundant; ++f) {
      if (!hits[t][f]) continue;
      bool covered_elsewhere = false;
      for (std::size_t o = 0; o < tests.size() && !covered_elsewhere; ++o)
        covered_elsewhere = o != t && keep[o] && hits[o][f];
      redundant = covered_elsewhere;
    }
    if (redundant) keep[t] = 0;
  }
  std::vector<PulseTest> out;
  for (std::size_t t = 0; t < tests.size(); ++t)
    if (keep[t]) out.push_back(std::move(tests[t]));
  if (obs::metrics_enabled()) {
    obs::counter("logic.compaction.tests_in").add(tests_in);
    obs::counter("logic.compaction.tests_kept").add(out.size());
  }
  return out;
}

double path_delay_logic(const FaultSimulator& sim, const Path& path,
                        const LogicFault* fault) {
  PPD_REQUIRE(path.nets.size() >= 2, "path too short");
  double d = 0.0;
  for (std::size_t i = 1; i < path.nets.size(); ++i) {
    const NetId id = path.nets[i];
    const Gate& g = sim.netlist().gate(id);
    GateTiming t = sim.library().timing(g.kind);
    if (fault != nullptr && fault->gate == id) {
      // The slower of the two polarities' faulty timings (the DF test
      // launches the transition the fault attacks).
      const GateTiming a = sim.faulty_timing(g, *fault, true);
      const GateTiming b = sim.faulty_timing(g, *fault, false);
      t.delay_rise = std::max(a.delay_rise, b.delay_rise);
      t.delay_fall = std::max(a.delay_fall, b.delay_fall);
    }
    d += std::max(t.delay_rise, t.delay_fall);
  }
  return d;
}

bool delay_test_detects(const FaultSimulator& sim, const Path& path,
                        const LogicFault& fault, const DelayTestModel& model) {
  PPD_REQUIRE(model.clock_period > 0.0, "delay test needs a clock period");
  const bool on_path =
      std::find(path.nets.begin() + 1, path.nets.end(), fault.gate) !=
      path.nets.end();
  if (!on_path) return false;
  const double d = path_delay_logic(sim, path, &fault);
  return d + model.ff_overhead > model.clock_period;
}

FaultCoverage run_delay_testing(const FaultSimulator& sim,
                                const std::vector<LogicFault>& faults,
                                DelayTestModel model, const AtpgOptions& options) {
  const obs::Span span("logic.delay_testing");
  const Netlist& nl = sim.netlist();
  if (model.clock_period <= 0.0) {
    // At-speed default: the circuit's critical delay plus the FF budget.
    double crit = 0.0;
    std::vector<double> arrival(nl.size(), 0.0);
    for (NetId id : nl.topological_order()) {
      const Gate& g = nl.gate(id);
      if (g.kind == LogicKind::kInput) continue;
      double worst = 0.0;
      for (NetId f : g.fanin) worst = std::max(worst, arrival[f]);
      const GateTiming& t = sim.library().timing(g.kind);
      arrival[id] = worst + std::max(t.delay_rise, t.delay_fall);
    }
    for (NetId o : nl.outputs()) crit = std::max(crit, arrival[o]);
    model.clock_period = crit + model.ff_overhead;
  }

  FaultCoverage cov;
  cov.detected.assign(faults.size(), 0);
  // Per-fault verdicts are independent (path enumeration and sensitization
  // are pure functions of the netlist), so the fault list fans out.
  exec::SweepStats stats;
  exec::parallel_for(
      faults.size(),
      [&](std::size_t f) {
        for (const Path& path : enumerate_paths_through(
                 nl, faults[f].gate, options.paths_per_site)) {
          if (!delay_test_detects(sim, path, faults[f], model)) continue;
          if (!sensitize_path(nl, path, options.sensitize).ok) continue;
          cov.detected[f] = 1;
          break;
        }
      },
      parallel_options(options.exec, nl, "delay-test faultsim"), &stats);
  exec::record_sweep("logic.delay_testing", stats);
  for (char d : cov.detected)
    if (d) ++cov.detected_count;
  return cov;
}

AtpgResult generate_pulse_tests(const FaultSimulator& sim,
                                const std::vector<LogicFault>& faults,
                                const AtpgOptions& options) {
  const obs::Span span("logic.atpg");
  const Netlist& nl = sim.netlist();
  AtpgResult res;
  res.faults_total = faults.size();
  res.coverage.detected.assign(faults.size(), 0);

  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (res.coverage.detected[f]) continue;
    const LogicFault& fault = faults[f];
    bool found = false;
    for (const Path& path :
         enumerate_paths_through(nl, fault.gate, options.paths_per_site)) {
      const auto sens = sensitize_path(nl, path, options.sensitize);
      if (!sens.ok) continue;
      const auto widths = plan_widths(sim, path, options);
      if (!widths.has_value()) continue;

      PulseTest test;
      test.path = path;
      test.vector = sens.pi_values;
      test.w_in = widths->first;
      test.w_th = widths->second;
      // Pick the pulse polarity the fault is most vulnerable to.
      test.positive_pulse = true;
      const double resp_h = sim.response(test, &fault);
      test.positive_pulse = false;
      const double resp_l = sim.response(test, &fault);
      test.positive_pulse = resp_h <= resp_l;

      if (!sim.detects(test, fault)) continue;
      // Accept the test and fold in its cross-detections. The fold fans out
      // over the fault list (each slot written independently); the greedy
      // selection order — and therefore the generated test set — is
      // untouched by the thread count.
      exec::parallel_for(
          faults.size(),
          [&](std::size_t g) {
            if (!res.coverage.detected[g] && sim.detects(test, faults[g]))
              res.coverage.detected[g] = 1;
          },
          parallel_options(options.exec, nl, "ATPG cross-detection"));
      res.coverage.detected_count = 0;
      for (char d : res.coverage.detected)
        if (d) ++res.coverage.detected_count;
      res.tests.push_back(std::move(test));
      found = true;
      break;
    }
    if (!found) ++res.aborted;
  }
  if (obs::metrics_enabled()) {
    obs::counter("logic.atpg.tests_generated").add(res.tests.size());
    obs::counter("logic.atpg.aborted").add(res.aborted);
  }
  return res;
}

}  // namespace ppd::logic
