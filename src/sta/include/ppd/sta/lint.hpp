// PPD3xx — static-timing/testability lint rules, the diagnostic face of
// ppd::sta. Emitted through the same stable-code machinery as the PPD0xx
// netlist, PPD1xx electrical and PPD2xx pulse-config families:
//
//   PPD301  warning  statically pulse-dead gate: even the widest
//                    launchable pulse at this site cannot reach any PO at
//                    the sensing floor (optimistic survival bound)
//   PPD302  warning  unjustifiable side input: a high-slack path's side
//                    inputs cannot be sensitized to non-controlling values
//   PPD303  note     untestable slack site: the net has enough slack to
//                    hide a small delay defect, but is pulse-dead — the
//                    pulse method cannot cover it
//   PPD304  warning  generator ceiling below every path's provable block
//                    threshold: the configured w_in_max makes the entire
//                    netlist statically undetectable
#pragma once

#include "ppd/lint/diagnostic.hpp"
#include "ppd/logic/attenuation.hpp"
#include "ppd/logic/sensitize.hpp"
#include "ppd/sta/interval_sta.hpp"
#include "ppd/sta/survival.hpp"

namespace ppd::sta {

struct StaLintOptions {
  /// A net is a "slack site" for PPD303 when its guaranteed slack is at
  /// least this fraction of the clock period.
  double slack_frac = 0.25;
  /// PPD302 examines at most this many of the slackiest paths.
  std::size_t max_paths = 32;
  logic::SensitizeOptions sensitize;
};

/// Run the PPD3xx family over one netlist, judging slack and pulse
/// survival against the caller's interval STA and survival passes over the
/// same netlist and library (the survival limits the diagnostics quote are
/// `survival.options`).
[[nodiscard]] lint::Report lint_sta(const logic::Netlist& netlist,
                                    const logic::GateTimingLibrary& library,
                                    const IntervalStaResult& sta,
                                    const SurvivalResult& survival,
                                    const StaLintOptions& options = {});

}  // namespace ppd::sta
