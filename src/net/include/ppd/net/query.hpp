// The query layer shared by ppdtool's subcommands and the ppdd service.
//
// A QueryParams is everything one coverage / R_min / transfer-function /
// calibrate / lint query needs, independent of where the values came from
// (strict --key=value CLI flags or a session's SET config). run_query
// renders the result into the byte-exact text the equivalent single-shot
// ppdtool invocation prints — both front ends call the same function, so
// "bit-identical across the wire" holds by construction, not by parallel
// maintenance of two formatters.
//
// Parameter keys, defaults and parsing are shared the same way:
// params_from_lookup drives both util::Cli (ppdtool) and the session config
// map (ppdd) through one lookup interface.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ppd/exec/cancel.hpp"
#include "ppd/util/cli.hpp"

namespace ppd::net {

enum class QueryKind { kTransfer, kCalibrate, kCoverage, kRmin, kLint, kSta };
/// Number of QueryKind values (per-kind metric tables are sized by this).
inline constexpr std::size_t kQueryKindCount = 6;

/// Parse "transfer" / "calibrate" / "coverage" / "rmin" / "lint" / "sta"
/// (case-insensitive); throws ppd::ParseError otherwise.
[[nodiscard]] QueryKind query_kind_from_string(const std::string& s);
[[nodiscard]] const char* query_kind_name(QueryKind kind);

struct QueryParams {
  // Path / fault selection (transfer, calibrate, coverage, rmin).
  std::string gates;              ///< "inv,nand2,..."; "" = seven-gate path
  std::string fault = "external";
  std::size_t stage = 1;

  // Monte-Carlo population.
  int samples = 0;                ///< per-kind default applied at build time
  std::uint64_t seed = 2007;
  double sigma = 0.05;

  // Sweep grids.
  double r_lo = 1e3, r_hi = 64e3;      ///< coverage R sweep [ohm]
  double w_lo = 0.08e-9, w_hi = 0.8e-9;  ///< transfer w_in grid [s]
  std::size_t points = 0;              ///< per-kind default (15 / 9)

  // Coverage.
  std::string method = "pulse";   ///< pulse | delay

  // R_min bisection.
  double rmin_lo = 100.0, rmin_hi = 100e3;
  int bisection_steps = 10;
  double target_coverage = 1.0;

  // Resilience (coverage + rmin).
  bool strict = false;            ///< true = fail fast (library default)
  double solve_budget = 0.0, sweep_budget = 0.0;
  std::string checkpoint;
  bool resume = false;
  std::string fault_plan;         ///< "" = PPD_FAULT_PLAN env
  std::string quarantine_json;    ///< side file ("" = none)

  // Lint (uploaded blob; the name's extension selects the language). The
  // json/suppress knobs are shared with the sta query.
  std::string lint_name;
  std::string lint_text;
  bool lint_json = false;
  std::string lint_min_severity;  ///< "" = note
  std::string lint_suppress;      ///< comma-separated codes (validated)

  // Static timing (sta). `bench` is a local .bench path (ppdtool); an
  // uploaded blob (bench_name + bench_text, ppdd) takes precedence; both
  // empty = the bundled synthetic C432-class benchmark. The report names
  // the netlist by base name, so file-loaded and uploaded runs of the
  // same netlist are byte-identical.
  std::string bench;
  std::string bench_name;
  std::string bench_text;
  double clock = 0.0;          ///< clock period [s]; <= 0 = critical delay
  std::size_t k_paths = 5;     ///< slackiest paths to enumerate
  double w_in_max = 1.2e-9;    ///< generator ceiling for survival bounds
  double w_th_floor = 50e-12;  ///< sensing floor for survival bounds
  double margin = 0.25;        ///< survival parameter margin
  double slack_frac = 0.25;    ///< PPD303 slack-site threshold fraction

  // Presentation + execution.
  bool csv = false;
  int threads = 1;
  exec::CancelToken cancel;       ///< fire to abandon the sweep mid-flight
};

/// One string lookup: nullopt = key absent (use the default). The adapter
/// for util::Cli and for a session's config map.
using ParamLookup =
    std::function<std::optional<std::string>(const std::string& key)>;

/// Keys `kind` understands (SET validation and Cli allow-lists).
[[nodiscard]] const std::vector<std::string>& query_keys(QueryKind kind);

/// Build params for `kind` from a lookup, applying the per-kind defaults
/// ppdtool has always used. Unknown keys are the lookup's concern (Cli
/// throws, sessions reject at SET time); malformed values throw
/// ppd::ParseError here.
[[nodiscard]] QueryParams params_from_lookup(QueryKind kind,
                                             const ParamLookup& lookup);

/// Convenience adapter over a parsed util::Cli.
[[nodiscard]] QueryParams params_from_cli(QueryKind kind,
                                          const util::Cli& cli);

struct QueryResult {
  std::string body;   ///< byte-exact equivalent ppdtool stdout
  int exit_code = 0;  ///< process exit code ppdtool would return (lint: 1
                      ///< when error-severity findings remain)
};

/// Execute one query. Throws what the underlying layers throw
/// (ParseError, NumericalError, exec::CancelledError, ...).
[[nodiscard]] QueryResult run_query(QueryKind kind, const QueryParams& params);

}  // namespace ppd::net
