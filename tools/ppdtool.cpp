// ppdtool — command-line front end to the pulse-propagation test library.
//
//   ppdtool transfer  [--gates=inv,nand2,...] [--w-lo=s] [--w-hi=s] [--points=N]
//       Print the pulse transfer function w_out(w_in) of a path.
//
//   ppdtool calibrate [--fault=KIND] [--stage=N] [--samples=N] [--sigma=F]
//       Calibrate both test methods on the paper's 7-gate path (or
//       --gates=...) and print (T0, w_in, w_th).
//
//   ppdtool coverage  [--method=pulse|delay] [--fault=KIND] [--stage=N]
//                     [--r-lo=ohm] [--r-hi=ohm] [--points=N] [--samples=N]
//                     [--strict] [--solve-budget=s] [--sweep-budget=s]
//                     [--checkpoint=FILE] [--resume=FILE] [--threads=N]
//                     [--fault-plan=SPEC] [--quarantine-json=FILE]
//       Monte-Carlo fault-coverage sweep (Figs. 6-9 style). Runs in
//       quarantine mode by default (failing samples are recorded and
//       skipped); --strict restores fail-fast. --resume continues an
//       interrupted sweep from its checkpoint file. --fault-plan
//       (or the PPD_FAULT_PLAN env var) injects deterministic faults, e.g.
//       "seed=13,newton=0.35,nan=0.08" — see ppd/resil/faultplan.hpp.
//       SIGINT/SIGTERM cancel the sweep cleanly: the checkpoint (if
//       configured) is flushed and the exit code is 128+signal.
//
//   ppdtool rmin      [--fault=KIND] [--stage=N] [--samples=N] [--sigma=F]
//                     [--r-lo=ohm] [--r-hi=ohm] [--steps=N]
//                     [--target-coverage=F] [--threads=N]
//       Bisect the minimum detectable fault resistance R_min of the pulse
//       test (Fig. 10 style). Same signal semantics as coverage.
//
//   ppdtool sta       [--bench=FILE] [--clock=s] [--k=N] [--w-in-max=s]
//                     [--w-th-floor=s] [--margin=F] [--slack-frac=F]
//                     [--suppress=PPD301,...] [--json]
//       Static path-screening report of a .bench netlist (bundled
//       C432-class benchmark when no file is given): four-value interval
//       STA, the K slackiest paths (branch-and-bound), static
//       pulse-survival site counts, and the PPD3xx testability lint
//       family. --json emits the whole report as one JSON object.
//
//   ppdtool atpg      [--bench=FILE] [--r=ohm] [--slack=FRACTION] [--paths=N]
//       Logic-level ROP fault list at slack sites (guaranteed interval-STA
//       slack >= FRACTION x Tcrit) + greedy pulse-test ATPG.
//
//   ppdtool export    [--gates=...] [--fault=KIND] [--stage=N] [--r=ohm]
//       Emit a runnable SPICE deck of the (optionally faulty) path for
//       cross-validation with an external simulator.
//
//   ppdtool vcd       [--bench=FILE] [--pulse-input=N] [--width=s]
//       Event-simulate a pulse through a .bench netlist and dump VCD.
//
//   ppdtool lint      <file>... [--json] [--min-severity=note|warning|error]
//                     [--suppress=PPD004,PPD007,...]
//       Static analysis of .bench netlists and SPICE decks (.sp/.cir/.spice).
//       Prints structured diagnostics (stable PPD0xx codes) as text or JSON
//       and exits non-zero when error-severity findings remain.
//
// The query subcommands (transfer, calibrate, coverage, rmin, lint) are thin
// wrappers over ppd::net's query layer — the same code path the ppdd service
// executes, so served results are byte-identical to this tool's stdout.
//
// All table-producing subcommands accept --csv for machine-readable output.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "ppd/core/coverage.hpp"
#include "ppd/core/logic_bridge.hpp"
#include "ppd/faults/fault.hpp"
#include "ppd/lint/bench_lint.hpp"
#include "ppd/lint/spice_lint.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/logic/faultsim.hpp"
#include "ppd/logic/vcd.hpp"
#include "ppd/net/query.hpp"
#include "ppd/obs/run.hpp"
#include "ppd/spice/export.hpp"
#include "ppd/sta/interval_sta.hpp"
#include "ppd/util/cli.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/strings.hpp"
#include "ppd/util/table.hpp"

namespace {

using namespace ppd;

logic::Netlist netlist_from_cli(const util::Cli& cli) {
  const std::string file = cli.get("bench", std::string());
  if (file.empty()) return logic::synthetic_benchmark(logic::SyntheticOptions{});
  return logic::load_bench_file(file);
}

void emit(const util::Table& t, bool csv) {
  if (csv)
    std::cout << t.to_csv();
  else
    t.print(std::cout);
}

// ---------------------------------------------------------------------------
// Signal-aware sweep cancellation (coverage / rmin).
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_signal = 0;

extern "C" void ppdtool_on_signal(int sig) {
  g_signal = static_cast<std::sig_atomic_t>(sig);
}

/// While alive, SIGINT/SIGTERM fire the sweep's CancelToken instead of
/// killing the process: the cancellation unwinds through
/// ppd::resil::guarded_map, which flushes a coverage sweep's checkpoint
/// before the error escapes (rmin keeps none), and the caller exits with
/// 128+signal so scripts can tell an interrupted sweep from a failed one.
class SignalGuard {
 public:
  explicit SignalGuard(exec::CancelToken token) : token_(std::move(token)) {
    g_signal = 0;
    prev_int_ = std::signal(SIGINT, ppdtool_on_signal);
    prev_term_ = std::signal(SIGTERM, ppdtool_on_signal);
    // std::signal handlers may only touch the sig_atomic_t flag; a watcher
    // thread turns the flag into a CancelToken fire.
    watcher_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        if (g_signal != 0) {
          token_.cancel();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  ~SignalGuard() {
    stop_.store(true, std::memory_order_relaxed);
    watcher_.join();
    std::signal(SIGINT, prev_int_);
    std::signal(SIGTERM, prev_term_);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

  [[nodiscard]] int signal_number() const { return static_cast<int>(g_signal); }

 private:
  exec::CancelToken token_;
  std::atomic<bool> stop_{false};
  std::thread watcher_;
  void (*prev_int_)(int) = nullptr;
  void (*prev_term_)(int) = nullptr;
};

// ---------------------------------------------------------------------------
// Query subcommands: parse flags through the shared net::query key tables
// and execute through the same run_query the ppdd service calls.
// ---------------------------------------------------------------------------

int cmd_query(net::QueryKind kind, int argc, char** argv,
              bool signal_aware) {
  const util::Cli cli(argc, argv, net::query_keys(kind));
  const net::QueryParams params = net::params_from_cli(kind, cli);
  if (!signal_aware) {
    const net::QueryResult res = net::run_query(kind, params);
    std::cout << res.body;
    return res.exit_code;
  }
  SignalGuard guard(params.cancel);
  try {
    const net::QueryResult res = net::run_query(kind, params);
    std::cout << res.body;
    return res.exit_code;
  } catch (const exec::CancelledError&) {
    const int sig = guard.signal_number();
    if (sig == 0) throw;  // not ours (e.g. an injected cancel-after fault)
    std::cerr << "ppdtool: interrupted by signal " << sig;
    if (!params.checkpoint.empty())
      std::cerr << " (checkpoint saved: " << params.checkpoint << ")";
    std::cerr << "\n";
    return 128 + sig;
  }
}

int cmd_atpg(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"bench", "r", "slack", "paths", "csv"});
  const logic::Netlist nl = netlist_from_cli(cli);
  const auto lib = logic::GateTimingLibrary::generic();
  const auto timing = sta::run_interval_sta(nl, lib);
  const double frac = cli.finite("slack", 0.2);
  const auto sites =
      sta::slack_sites(nl, timing, frac * timing.critical_delay);
  const auto faults = logic::enumerate_rop_faults(sites, cli.get("r", 10e3));
  const logic::FaultSimulator sim(nl, lib);
  logic::AtpgOptions aopt;
  aopt.paths_per_site = cli.count("paths", 32);
  const auto res = logic::generate_pulse_tests(sim, faults, aopt);
  std::cout << "# " << sites.size() << " slack sites (slack >= "
            << util::format_double(frac, 3) << " x Tcrit), "
            << res.faults_total << " ROP faults\n"
            << "# coverage "
            << util::format_double(res.coverage.coverage(res.faults_total), 4)
            << " with " << res.tests.size() << " tests; " << res.aborted
            << " faults without a sensitizable path\n";
  util::Table t({"test", "path", "pulse", "w_in_s", "w_th_s"});
  for (std::size_t i = 0; i < res.tests.size(); ++i) {
    const auto& test = res.tests[i];
    std::string pstr;
    for (logic::NetId n : test.path.nets) {
      if (!pstr.empty()) pstr += '>';
      pstr += nl.gate(n).name;
    }
    t.add_row({std::to_string(i), pstr, test.positive_pulse ? "h" : "l",
               util::format_double(test.w_in, 4),
               util::format_double(test.w_th, 4)});
  }
  emit(t, cli.has("csv"));
  return 0;
}

int cmd_export(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"gates", "fault", "stage", "r", "width"});
  core::PathFactory f;
  f.options.kinds = net::gates_from_spec(cli.get("gates", std::string()));
  const double r = cli.get("r", 0.0);
  if (r > 0.0) {
    faults::PathFaultSpec spec;
    spec.kind =
        net::fault_kind_from_string(cli.get("fault", std::string("external")));
    spec.stage = static_cast<std::size_t>(cli.get("stage", 1));
    f.fault = spec;
  }
  core::PathInstance inst = core::make_instance(f, r, nullptr);
  inst.path.drive_pulse(true, cli.get("width", 0.35e-9), 0.3e-9);
  spice::SpiceExportOptions o;
  o.title = "ppd path export (fault R = " + util::format_double(r, 4) + " ohm)";
  o.tran_step = 1e-12;
  o.tran_stop = 4e-9;
  spice::write_spice(std::cout, inst.path.netlist().circuit(), o);
  return 0;
}

int cmd_vcd(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"bench", "pulse-input", "width"});
  const logic::Netlist nl = netlist_from_cli(cli);
  const auto idx = static_cast<std::size_t>(cli.get("pulse-input", 0));
  if (idx >= nl.inputs().size())
    throw ppd::ParseError("--pulse-input out of range");
  std::vector<logic::Stimulus> stim(nl.inputs().size());
  stim[idx] = logic::Stimulus::pulse(false, 1e-9, cli.get("width", 0.4e-9));
  const auto res = logic::simulate(nl, stim);
  logic::write_vcd(std::cout, nl, res);
  return 0;
}

bool has_ext(const std::string& path, const char* ext) {
  const auto dot = path.rfind('.');
  return dot != std::string::npos &&
         util::iequals(std::string_view(path).substr(dot), ext);
}

// `lint <file>...` takes positional arguments, which util::Cli (strictly
// --key=value) does not model — parse argv by hand.
int cmd_lint(int argc, char** argv) {
  std::vector<std::string> files;
  bool json = false;
  lint::LintOptions filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (util::starts_with(arg, "--min-severity=")) {
      filter.min_severity = lint::severity_from_string(
          arg.substr(std::string("--min-severity=").size()));
    } else if (util::starts_with(arg, "--suppress=")) {
      // Unknown/malformed codes are hard errors, not silently dead filters.
      for (auto& code : lint::parse_suppress_list(
               arg.substr(std::string("--suppress=").size())))
        filter.suppress.push_back(std::move(code));
    } else if (util::starts_with(arg, "--")) {
      throw ppd::ParseError("unknown lint flag: " + arg);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty())
    throw ppd::ParseError("lint needs at least one file "
                          "(.bench netlist or .sp/.cir/.spice deck)");

  lint::Report report;
  for (const std::string& file : files) {
    if (has_ext(file, ".bench"))
      report.merge(lint::lint_bench_file(file));
    else if (has_ext(file, ".sp") || has_ext(file, ".cir") ||
             has_ext(file, ".spice"))
      report.merge(lint::lint_spice_deck_file(file));
    else
      throw ppd::ParseError("cannot infer input language of '" + file +
                            "' (expected .bench or .sp/.cir/.spice)");
  }
  const lint::Report shown = report.filtered(filter);
  if (json)
    lint::write_json(std::cout, shown);
  else
    lint::write_text(std::cout, shown);
  return shown.has_errors() ? 1 : 0;
}

int usage() {
  std::cerr << "usage: ppdtool "
               "<transfer|calibrate|coverage|rmin|sta|atpg|export|vcd|lint> "
               "[--options]\n"
               "(see the header of tools/ppdtool.cpp; ppdd serves the same "
               "queries over a socket)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The obs flags (--metrics=, --trace=, --log-level=, --log-json=) are
  // global: strip them here so the strict per-subcommand parsers never see
  // them, and let ScopedRun write the sinks on every exit path below.
  ppd::obs::ScopedRun run(ppd::obs::extract_run_options(argc, argv));
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "transfer")
      return cmd_query(net::QueryKind::kTransfer, argc - 1, argv + 1, false);
    if (cmd == "calibrate")
      return cmd_query(net::QueryKind::kCalibrate, argc - 1, argv + 1, false);
    if (cmd == "coverage")
      return cmd_query(net::QueryKind::kCoverage, argc - 1, argv + 1, true);
    if (cmd == "rmin")
      return cmd_query(net::QueryKind::kRmin, argc - 1, argv + 1, true);
    if (cmd == "sta")
      return cmd_query(net::QueryKind::kSta, argc - 1, argv + 1, false);
    if (cmd == "atpg") return cmd_atpg(argc - 1, argv + 1);
    if (cmd == "export") return cmd_export(argc - 1, argv + 1);
    if (cmd == "vcd") return cmd_vcd(argc - 1, argv + 1);
    if (cmd == "lint") return cmd_lint(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::cerr << "ppdtool: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
