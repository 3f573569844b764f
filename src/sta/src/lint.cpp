#include "ppd/sta/lint.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "ppd/util/table.hpp"

namespace ppd::sta {

namespace {

std::string ps(double seconds) {
  return util::format_double(seconds * 1e12, 1) + " ps";
}

std::string path_location(const logic::Netlist& netlist,
                          const logic::Path& path) {
  return netlist.gate(path.input()).name + "->" +
         netlist.gate(path.output()).name;
}

}  // namespace

lint::Report lint_sta(const logic::Netlist& netlist,
                      const logic::GateTimingLibrary& library,
                      const IntervalStaResult& sta,
                      const SurvivalResult& survival,
                      const StaLintOptions& options) {
  lint::Report report;
  const SurvivalOptions& limits = survival.options;

  // PPD301/PPD303: per-site survival vs slack.
  double min_need = std::numeric_limits<double>::infinity();
  for (logic::NetId id = 0; id < netlist.size(); ++id) {
    const logic::Gate& g = netlist.gate(id);
    if (g.kind == logic::LogicKind::kInput) continue;
    min_need = std::min(min_need, survival.need[id]);
    if (!survival.dead(id)) continue;
    const std::string need_s = std::isinf(survival.need[id])
                                   ? "unbounded"
                                   : ps(survival.need[id]);
    report.add(lint::Severity::kWarning, "PPD301", g.name,
               "statically pulse-dead gate: a pulse launched here needs " +
                   need_s + " to reach any output at the " +
                   ps(limits.w_th_floor) +
                   " sensing floor, above the " +
                   ps(limits.w_in_max) + " generator ceiling",
               "raise w_in_max, lower w_th_floor, or exclude the site from "
               "the pulse-test fault list");
    const double slack = sta.slack[id].lo;
    if (slack >= options.slack_frac * sta.clock_period) {
      report.add(lint::Severity::kNote, "PPD303", g.name,
                 "untestable slack site: " + ps(slack) +
                     " guaranteed slack can hide a small delay defect, but "
                     "the site is statically pulse-dead",
                 "cover the site with a delay test on a shorter path or a "
                 "different method");
    }
  }

  // PPD304: the whole netlist is statically undetectable.
  if (min_need > limits.w_in_max) {
    report.add(lint::Severity::kWarning, "PPD304", netlist.source(),
               "generator ceiling " + ps(limits.w_in_max) +
                   " is below every site's provable block threshold (best "
                   "site needs " +
                   (std::isinf(min_need) ? "unbounded" : ps(min_need)) +
                   "): no pulse test on this netlist can detect anything",
               "raise w_in_max above the best site's threshold");
  }

  // PPD302: the slackiest paths — precisely the ones the pulse method wants
  // to probe — must be sensitizable.
  for (const SlackPath& sp :
       k_slackiest_paths(netlist, library, sta, options.max_paths)) {
    if (logic::sensitize_path(netlist, sp.path, options.sensitize).ok)
      continue;
    report.add(lint::Severity::kWarning, "PPD302",
               path_location(netlist, sp.path),
               "unjustifiable side input: this " + ps(sp.slack) +
                   "-slack path cannot be sensitized (no PI assignment "
                   "holds every side input non-controlling)",
               "the site may still be covered through another path; check "
               "the screen report");
  }
  return report;
}

}  // namespace ppd::sta
