#include "ppd/net/query.hpp"

#include <fstream>
#include <sstream>

#include "ppd/core/coverage.hpp"
#include "ppd/core/rmin.hpp"
#include "ppd/lint/bench_lint.hpp"
#include "ppd/lint/spice_lint.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/sta/interval_sta.hpp"
#include "ppd/sta/lint.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"
#include "ppd/util/strings.hpp"
#include "ppd/util/table.hpp"

namespace ppd::net {

namespace {

cells::GateKind gate_kind_from_string(const std::string& s) {
  using util::iequals;
  if (iequals(s, "inv")) return cells::GateKind::kInv;
  if (iequals(s, "nand2")) return cells::GateKind::kNand2;
  if (iequals(s, "nand3")) return cells::GateKind::kNand3;
  if (iequals(s, "nor2")) return cells::GateKind::kNor2;
  if (iequals(s, "nor3")) return cells::GateKind::kNor3;
  if (iequals(s, "aoi21")) return cells::GateKind::kAoi21;
  if (iequals(s, "oai21")) return cells::GateKind::kOai21;
  throw ParseError("unknown gate kind: " + s +
                   " (use inv|nand2|nand3|nor2|nor3|aoi21|oai21)");
}

core::PathFactory factory_from(const QueryParams& p, bool with_fault) {
  core::PathFactory f;
  f.options.kinds = gates_from_spec(p.gates);
  if (with_fault) {
    faults::PathFaultSpec spec;
    spec.kind = fault_kind_from_string(p.fault);
    spec.stage = p.stage;
    f.fault = spec;
  }
  return f;
}

void emit(std::ostream& os, const util::Table& t, bool csv) {
  if (csv)
    os << t.to_csv();
  else
    t.print(os);
}

// ---------------------------------------------------------------------------
// Parameter building. One key table per kind keeps ppdtool's allow-lists and
// the session SET validation in lock-step.
// ---------------------------------------------------------------------------

struct Lookup {
  const ParamLookup& raw;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const {
    const auto v = raw(key);
    return v ? *v : def;
  }
  [[nodiscard]] double get(const std::string& key, double def) const {
    const auto v = raw(key);
    return v ? util::parse_number(key, *v) : def;
  }
  [[nodiscard]] int get(const std::string& key, int def) const {
    return static_cast<int>(get(key, static_cast<double>(def)));
  }
  [[nodiscard]] std::size_t count(const std::string& key,
                                  std::size_t def) const {
    const auto v = raw(key);
    return v ? util::parse_count(key, *v) : def;
  }
  [[nodiscard]] double finite(const std::string& key, double def) const {
    const auto v = raw(key);
    return v ? util::parse_finite(key, *v) : def;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    // Presence-style flags (--csv, --strict): the Cli adapter yields "1"
    // for a bare flag; sessions SET an explicit 0/1. "0" counts as unset so
    // `SET csv 0` can undo an earlier `SET csv 1`.
    const auto v = raw(key);
    return v && *v != "0";
  }
};

}  // namespace

faults::FaultKind fault_kind_from_string(const std::string& s) {
  using util::iequals;
  if (iequals(s, "external")) return faults::FaultKind::kExternalRopOutput;
  if (iequals(s, "branch")) return faults::FaultKind::kExternalRopBranch;
  if (iequals(s, "internal-up")) return faults::FaultKind::kInternalRopPullUp;
  if (iequals(s, "internal-down"))
    return faults::FaultKind::kInternalRopPullDown;
  if (iequals(s, "bridge")) return faults::FaultKind::kBridge;
  throw ParseError("unknown fault kind: " + s +
                   " (use external|branch|internal-up|internal-down|bridge)");
}

std::vector<cells::GateKind> gates_from_spec(const std::string& spec) {
  if (spec.empty()) return cells::seven_gate_path().kinds;
  std::vector<cells::GateKind> kinds;
  for (const auto& tok : util::split(spec, ','))
    kinds.push_back(gate_kind_from_string(std::string(util::trim(tok))));
  return kinds;
}

QueryKind query_kind_from_string(const std::string& s) {
  using util::iequals;
  if (iequals(s, "transfer")) return QueryKind::kTransfer;
  if (iequals(s, "calibrate")) return QueryKind::kCalibrate;
  if (iequals(s, "coverage")) return QueryKind::kCoverage;
  if (iequals(s, "rmin")) return QueryKind::kRmin;
  if (iequals(s, "lint")) return QueryKind::kLint;
  if (iequals(s, "sta")) return QueryKind::kSta;
  throw ParseError("unknown query kind: " + s +
                   " (use transfer|calibrate|coverage|rmin|lint|sta)");
}

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTransfer: return "transfer";
    case QueryKind::kCalibrate: return "calibrate";
    case QueryKind::kCoverage: return "coverage";
    case QueryKind::kRmin: return "rmin";
    case QueryKind::kLint: return "lint";
    case QueryKind::kSta: return "sta";
  }
  return "?";
}

const std::vector<std::string>& query_keys(QueryKind kind) {
  static const std::vector<std::string> transfer{"gates", "w-lo", "w-hi",
                                                 "points", "csv"};
  static const std::vector<std::string> calibrate{
      "gates", "fault", "stage", "samples", "sigma", "seed", "csv"};
  static const std::vector<std::string> coverage{
      "gates",        "fault",        "stage",      "method",
      "samples",      "sigma",        "seed",       "r-lo",
      "r-hi",         "points",       "csv",        "strict",
      "solve-budget", "sweep-budget", "checkpoint", "resume",
      "fault-plan",   "quarantine-json", "threads"};
  static const std::vector<std::string> rmin{
      "gates",  "fault", "stage",           "samples", "sigma",
      "seed",   "r-lo",  "r-hi",            "steps",   "target-coverage",
      "strict", "csv",   "solve-budget",    "threads"};
  static const std::vector<std::string> lint{"json", "min-severity",
                                             "suppress"};
  static const std::vector<std::string> sta{
      "bench",  "clock",      "k",          "w-in-max", "w-th-floor",
      "margin", "slack-frac", "suppress",   "json",     "csv",
      "threads"};
  switch (kind) {
    case QueryKind::kTransfer: return transfer;
    case QueryKind::kCalibrate: return calibrate;
    case QueryKind::kCoverage: return coverage;
    case QueryKind::kRmin: return rmin;
    case QueryKind::kLint: return lint;
    case QueryKind::kSta: return sta;
  }
  return transfer;
}

QueryParams params_from_lookup(QueryKind kind, const ParamLookup& lookup) {
  // Each kind reads exactly the keys its query_keys table lists, so a value
  // a session SET for another kind can neither change nor break this one,
  // and the table alone names everything a body depends on.
  const Lookup kv{lookup};
  QueryParams p;
  const auto read_path = [&p, &kv](bool with_fault) {
    p.gates = kv.get("gates", std::string());
    if (!with_fault) return;
    p.fault = kv.get("fault", std::string("external"));
    p.stage = static_cast<std::size_t>(kv.get("stage", 1));
  };
  const auto read_population = [&p, &kv](int default_samples) {
    p.seed = static_cast<std::uint64_t>(kv.get("seed", 2007));
    p.sigma = kv.get("sigma", 0.05);
    p.samples = kv.get("samples", default_samples);
  };
  switch (kind) {
    case QueryKind::kTransfer:
      read_path(false);
      p.csv = kv.has("csv");
      p.w_lo = kv.get("w-lo", 0.08e-9);
      p.w_hi = kv.get("w-hi", 0.8e-9);
      p.points = static_cast<std::size_t>(kv.get("points", 15));
      break;
    case QueryKind::kCalibrate:
      read_path(true);
      read_population(30);
      p.csv = kv.has("csv");
      break;
    case QueryKind::kCoverage:
      read_path(true);
      read_population(25);
      p.csv = kv.has("csv");
      p.threads = kv.get("threads", 1);
      p.method = kv.get("method", std::string("pulse"));
      p.r_lo = kv.get("r-lo", 1e3);
      p.r_hi = kv.get("r-hi", 64e3);
      p.points = static_cast<std::size_t>(kv.get("points", 9));
      p.strict = kv.has("strict");
      p.solve_budget = kv.get("solve-budget", 0.0);
      p.sweep_budget = kv.get("sweep-budget", 0.0);
      p.checkpoint = kv.get("checkpoint", std::string());
      if (const auto resume = lookup("resume"); resume && !resume->empty()) {
        // --resume=FILE names the checkpoint to continue from.
        p.checkpoint = *resume;
        p.resume = true;
      }
      p.fault_plan = kv.get("fault-plan", std::string());
      p.quarantine_json = kv.get("quarantine-json", std::string());
      break;
    case QueryKind::kRmin:
      read_path(true);
      read_population(20);
      p.csv = kv.has("csv");
      p.threads = kv.get("threads", 1);
      p.rmin_lo = kv.get("r-lo", 100.0);
      p.rmin_hi = kv.get("r-hi", 100e3);
      p.bisection_steps = kv.get("steps", 10);
      p.target_coverage = kv.get("target-coverage", 1.0);
      p.strict = kv.has("strict");
      p.solve_budget = kv.get("solve-budget", 0.0);
      break;
    case QueryKind::kLint:
      p.lint_json = kv.has("json");
      p.lint_min_severity = kv.get("min-severity", std::string());
      p.lint_suppress = kv.get("suppress", std::string());
      break;
    case QueryKind::kSta:
      p.csv = kv.has("csv");
      p.threads = kv.get("threads", 1);
      p.bench = kv.get("bench", std::string());
      p.clock = kv.finite("clock", 0.0);
      p.k_paths = kv.count("k", 5);
      p.w_in_max = kv.get("w-in-max", 1.2e-9);
      p.w_th_floor = kv.get("w-th-floor", 50e-12);
      p.margin = kv.get("margin", 0.25);
      p.slack_frac = kv.finite("slack-frac", 0.25);
      p.lint_json = kv.has("json");
      p.lint_suppress = kv.get("suppress", std::string());
      break;
  }
  return p;
}

QueryParams params_from_cli(QueryKind kind, const util::Cli& cli) {
  return params_from_lookup(kind,
                            [&cli](const std::string& key)
                                -> std::optional<std::string> {
                              if (!cli.has(key)) return std::nullopt;
                              return cli.get(key, std::string());
                            });
}

namespace {

QueryResult run_transfer(const QueryParams& p) {
  core::PathFactory f = factory_from(p, /*with_fault=*/false);
  const auto grid = core::linspace(p.w_lo, p.w_hi, p.points);
  core::PathInstance inst = core::make_instance(f, 0.0, nullptr);
  const auto curve =
      core::transfer_function(inst.path, core::PulseKind::kH, grid, {});
  util::Table t({"w_in_s", "w_out_s"});
  for (std::size_t i = 0; i < curve.w_in.size(); ++i)
    t.add_numeric_row({curve.w_in[i], curve.w_out[i]}, 5);
  std::ostringstream os;
  emit(os, t, p.csv);
  return {os.str(), 0};
}

QueryResult run_calibrate(const QueryParams& p) {
  core::PathFactory f = factory_from(p, /*with_fault=*/true);
  const auto model = mc::VariationModel::uniform_sigma(p.sigma);

  core::DelayCalibrationOptions dopt;
  dopt.samples = p.samples;
  dopt.seed = p.seed;
  dopt.variation = model;
  const auto dcal = core::calibrate_delay_test(f, dopt);
  core::PulseCalibrationOptions popt;
  popt.samples = p.samples;
  popt.seed = p.seed;
  popt.variation = model;
  const auto pcal = core::calibrate_pulse_test(f, popt);

  util::Table t({"parameter", "value_s"});
  t.add_row({"delay_T0", util::format_double(dcal.t_nominal, 6)});
  t.add_row({"worst_fault_free_delay",
             util::format_double(dcal.worst_fault_free_delay, 6)});
  t.add_row({"pulse_w_in", util::format_double(pcal.w_in, 6)});
  t.add_row({"pulse_w_th", util::format_double(pcal.w_th, 6)});
  t.add_row({"min_fault_free_w_out",
             util::format_double(pcal.min_fault_free_w_out, 6)});
  std::ostringstream os;
  emit(os, t, p.csv);
  return {os.str(), 0};
}

QueryResult run_coverage(const QueryParams& p) {
  core::PathFactory f = factory_from(p, /*with_fault=*/true);

  core::CoverageOptions copt;
  copt.samples = p.samples;
  copt.seed = p.seed;
  copt.variation = mc::VariationModel::uniform_sigma(p.sigma);
  copt.resistances = core::logspace(p.r_lo, p.r_hi, p.points);
  copt.threads = p.threads;
  copt.cancel = p.cancel;

  // Served sweeps default to quarantine mode, exactly like the CLI — a long
  // sweep should report its broken samples, not die on one of them; strict
  // restores the library's fail-fast default.
  copt.resil.quarantine = !p.strict;
  copt.resil.solve_budget_seconds = p.solve_budget;
  copt.resil.sweep_budget_seconds = p.sweep_budget;
  copt.resil.checkpoint_path = p.checkpoint;
  copt.resil.resume = p.resume;
  copt.resil.faults = p.fault_plan.empty()
                          ? resil::FaultPlan::from_env()
                          : resil::FaultPlan::parse(p.fault_plan);

  core::CoverageResult res;
  if (util::iequals(p.method, "delay")) {
    core::DelayCalibrationOptions dopt;
    dopt.samples = copt.samples;
    dopt.seed = copt.seed;
    dopt.variation = copt.variation;
    res = core::run_delay_coverage(f, core::calibrate_delay_test(f, dopt), copt);
  } else if (util::iequals(p.method, "pulse")) {
    core::PulseCalibrationOptions popt;
    popt.samples = copt.samples;
    popt.seed = copt.seed;
    popt.variation = copt.variation;
    res = core::run_pulse_coverage(f, core::calibrate_pulse_test(f, popt), copt);
  } else {
    throw ParseError("unknown method: " + p.method + " (use pulse|delay)");
  }

  util::Table t({"R_ohm", "x0.9", "x1.0", "x1.1"});
  for (std::size_t r = 0; r < res.resistances.size(); ++r)
    t.add_numeric_row({res.resistances[r], res.coverage[0][r],
                       res.coverage[1][r], res.coverage[2][r]},
                      4);
  std::ostringstream os;
  emit(os, t, p.csv);
  os << "# " << res.simulations << " electrical transients\n";
  if (copt.resil.quarantine)
    os << "# n_quarantined = " << res.n_quarantined() << " of "
       << res.quarantine.items << " samples\n";
  if (!p.quarantine_json.empty()) {
    std::ofstream qos(p.quarantine_json);
    if (!qos)
      throw ParseError("cannot open " + p.quarantine_json + " for writing");
    res.quarantine.write_json(qos);
  }
  return {os.str(), 0};
}

QueryResult run_rmin(const QueryParams& p) {
  core::PathFactory f = factory_from(p, /*with_fault=*/true);
  const auto model = mc::VariationModel::uniform_sigma(p.sigma);

  core::PulseCalibrationOptions popt;
  popt.samples = p.samples;
  popt.seed = p.seed;
  popt.variation = model;
  const auto cal = core::calibrate_pulse_test(f, popt);

  core::RminOptions ropt;
  ropt.samples = p.samples;
  ropt.seed = p.seed;
  ropt.variation = model;
  ropt.r_lo = p.rmin_lo;
  ropt.r_hi = p.rmin_hi;
  ropt.bisection_steps = p.bisection_steps;
  ropt.target_coverage = p.target_coverage;
  ropt.threads = p.threads;
  ropt.cancel = p.cancel;
  ropt.resil.quarantine = !p.strict;
  ropt.resil.solve_budget_seconds = p.solve_budget;
  const auto res = core::find_r_min(f, cal, ropt);

  util::Table t({"parameter", "value"});
  t.add_row({"detectable", res.detectable ? "1" : "0"});
  t.add_row({"r_min_ohm",
             res.detectable ? util::format_double(res.r_min, 6) : "inf"});
  t.add_row({"pulse_w_in_s", util::format_double(cal.w_in, 6)});
  t.add_row({"pulse_w_th_s", util::format_double(cal.w_th, 6)});
  t.add_row({"simulations", std::to_string(res.simulations)});
  t.add_row({"n_quarantined", std::to_string(res.n_quarantined)});
  std::ostringstream os;
  emit(os, t, p.csv);
  return {os.str(), 0};
}

bool has_ext(const std::string& name, const char* ext) {
  const auto dot = name.rfind('.');
  return dot != std::string::npos &&
         util::iequals(std::string_view(name).substr(dot), ext);
}

QueryResult run_lint(const QueryParams& p) {
  lint::Report report;
  if (has_ext(p.lint_name, ".bench"))
    report = lint::lint_bench_text(p.lint_text, p.lint_name);
  else if (has_ext(p.lint_name, ".sp") || has_ext(p.lint_name, ".cir") ||
           has_ext(p.lint_name, ".spice"))
    report = lint::lint_spice_deck_text(p.lint_text, p.lint_name);
  else
    throw ParseError("cannot infer input language of '" + p.lint_name +
                     "' (expected .bench or .sp/.cir/.spice)");

  lint::LintOptions filter;
  if (!p.lint_min_severity.empty())
    filter.min_severity = lint::severity_from_string(p.lint_min_severity);
  // Unknown/malformed codes are hard errors, not silently dead filters.
  filter.suppress = lint::parse_suppress_list(p.lint_suppress);

  const lint::Report shown = report.filtered(filter);
  std::ostringstream os;
  if (p.lint_json)
    lint::write_json(os, shown);
  else
    lint::write_text(os, shown);
  return {os.str(), shown.has_errors() ? 1 : 0};
}

std::string base_name(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

QueryResult run_sta(const QueryParams& p) {
  // Load order: uploaded blob (ppdd), local file (ppdtool), bundled
  // synthetic benchmark. The source is normalized to the base name so a
  // served run over an uploaded netlist is byte-identical to the local
  // run over the same file.
  logic::Netlist nl;
  if (!p.bench_text.empty()) {
    nl = logic::parse_bench(p.bench_text, p.bench_name);
    nl.set_source(base_name(p.bench_name));
  } else if (!p.bench.empty()) {
    nl = logic::load_bench_file(p.bench);
    nl.set_source(base_name(p.bench));
  } else {
    nl = logic::synthetic_benchmark(logic::SyntheticOptions{});
    nl.set_source("<synthetic-c432>");
  }
  const auto lib = logic::GateTimingLibrary::generic();

  const sta::IntervalStaResult ista = sta::run_interval_sta(nl, lib, p.clock);
  const auto slackiest = sta::k_slackiest_paths(nl, lib, ista, p.k_paths);

  sta::SurvivalOptions sopt;
  sopt.w_in_max = p.w_in_max;
  sopt.w_th_floor = p.w_th_floor;
  sopt.margin = p.margin;
  const sta::SurvivalResult survival = sta::compute_survival(nl, lib, sopt);

  sta::StaLintOptions lopt;
  lopt.slack_frac = p.slack_frac;
  const lint::Report report = sta::lint_sta(nl, lib, ista, survival, lopt);
  lint::LintOptions filter;
  filter.suppress = lint::parse_suppress_list(p.lint_suppress);
  const lint::Report shown = report.filtered(filter);

  std::size_t sites = 0;
  std::size_t dead_sites = 0;
  for (logic::NetId id = 0; id < nl.size(); ++id) {
    if (nl.gate(id).kind == logic::LogicKind::kInput) continue;
    ++sites;
    if (survival.dead(id)) ++dead_sites;
  }

  const auto path_string = [&nl](const logic::Path& path) {
    std::string s;
    for (logic::NetId n : path.nets) {
      if (!s.empty()) s += '>';
      s += nl.gate(n).name;
    }
    return s;
  };

  std::ostringstream os;
  if (p.lint_json) {
    os << "{\"netlist\":{\"name\":" << util::json::quote(nl.source())
       << ",\"gates\":" << nl.gate_count() << ",\"depth\":" << nl.depth()
       << ",\"inputs\":" << nl.inputs().size()
       << ",\"outputs\":" << nl.outputs().size() << "}"
       << ",\"timing\":{\"critical_delay_s\":"
       << util::format_double(ista.critical_delay, 6)
       << ",\"clock_period_s\":" << util::format_double(ista.clock_period, 6)
       << "},\"slackiest_paths\":[";
    for (std::size_t i = 0; i < slackiest.size(); ++i) {
      if (i) os << ',';
      os << "{\"rank\":" << i << ",\"delay_s\":"
         << util::format_double(slackiest[i].delay, 6)
         << ",\"slack_s\":" << util::format_double(slackiest[i].slack, 6)
         << ",\"length\":" << slackiest[i].path.length()
         << ",\"path\":" << util::json::quote(path_string(slackiest[i].path))
         << "}";
    }
    os << "],\"survival\":{\"w_in_max_s\":"
       << util::format_double(p.w_in_max, 6)
       << ",\"w_th_floor_s\":" << util::format_double(p.w_th_floor, 6)
       << ",\"margin\":" << util::format_double(p.margin, 6)
       << ",\"sites\":" << sites << ",\"pulse_dead_sites\":" << dead_sites
       << "},\"lint\":";
    std::string lint_json_s = lint::to_json(shown);
    while (!lint_json_s.empty() && lint_json_s.back() == '\n')
      lint_json_s.pop_back();
    os << lint_json_s << "}\n";
    return {os.str(), shown.has_errors() ? 1 : 0};
  }

  os << "# " << nl.source() << ": " << nl.gate_count() << " gates, depth "
     << nl.depth() << ", critical delay "
     << util::format_double(ista.critical_delay, 5) << " s, clock "
     << util::format_double(ista.clock_period, 5) << " s\n";
  os << "# survival: " << dead_sites << " of " << sites
     << " sites statically pulse-dead (w_in_max "
     << util::format_double(p.w_in_max, 4) << " s, w_th_floor "
     << util::format_double(p.w_th_floor, 4) << " s, margin "
     << util::format_double(p.margin, 3) << ")\n";
  util::Table paths_t({"rank", "delay_s", "slack_s", "len", "path"});
  for (std::size_t i = 0; i < slackiest.size(); ++i)
    paths_t.add_row({std::to_string(i),
                     util::format_double(slackiest[i].delay, 5),
                     util::format_double(slackiest[i].slack, 5),
                     std::to_string(slackiest[i].path.length()),
                     path_string(slackiest[i].path)});
  emit(os, paths_t, p.csv);
  util::Table slack_t({"slack_at_least_frac", "gates"});
  for (double frac : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    std::size_t n_sites = 0;
    for (logic::NetId id = 0; id < nl.size(); ++id) {
      if (nl.gate(id).kind == logic::LogicKind::kInput) continue;
      if (ista.slack[id].lo >= frac * ista.clock_period) ++n_sites;
    }
    slack_t.add_row({util::format_double(frac, 3), std::to_string(n_sites)});
  }
  emit(os, slack_t, p.csv);
  if (!shown.empty()) lint::write_text(os, shown);
  return {os.str(), shown.has_errors() ? 1 : 0};
}

}  // namespace

QueryResult run_query(QueryKind kind, const QueryParams& params) {
  switch (kind) {
    case QueryKind::kTransfer: return run_transfer(params);
    case QueryKind::kCalibrate: return run_calibrate(params);
    case QueryKind::kCoverage: return run_coverage(params);
    case QueryKind::kRmin: return run_rmin(params);
    case QueryKind::kLint: return run_lint(params);
    case QueryKind::kSta: return run_sta(params);
  }
  throw PreconditionError("unhandled query kind");
}

}  // namespace ppd::net
