// Four-value interval STA: {min,max} x {rise,fall} arrival windows per net.
//
// The paper's target population is the set of paths whose slack exceeds the
// defect-induced delay. This is the repository's one timing pass. A single
// worst-case arrival per net cannot show how *much* of a net's timing is
// certain (a net fed by reconvergent short and long paths has a wide
// arrival window, and its true slack is a range, not a number), and
// collapsing rise/fall delays through inverting gates overstates delay on
// inverter-heavy paths. This pass tracks both:
//
//  * polarity — an inverting gate's rising output edge is caused by a
//    falling input edge and costs delay_rise (XOR/XNOR may be flipped by
//    either edge, so both polarities contribute);
//  * intervals — arrival[net].rise = [earliest, latest] time a rising edge
//    can appear at the net over all sensitizable input edges.
//
// On top of the windows sits a K-slackiest path enumerator: best-first
// branch-and-bound with per-(net, polarity) suffix lower bounds, so the
// highest-slack candidates come out without exhaustive path enumeration.
#pragma once

#include <cstdint>
#include <vector>

#include "ppd/logic/attenuation.hpp"
#include "ppd/logic/paths.hpp"
#include "ppd/sta/interval.hpp"

namespace ppd::sta {

/// How a gate's output edge polarity relates to the causing input edge.
enum class EdgeCause {
  kSame,      // BUF/AND/OR: rising input edge -> rising output edge
  kInverted,  // NOT/NAND/NOR/XNOR-as-inverter: rising input -> falling output
  kEither,    // XOR/XNOR: any input edge may drive either output edge
};

[[nodiscard]] EdgeCause edge_cause(logic::LogicKind kind);

/// Rise/fall arrival (or slack) windows of one net.
struct EdgeTimes {
  Interval rise;
  Interval fall;

  [[nodiscard]] double latest() const { return std::max(rise.hi, fall.hi); }
  [[nodiscard]] double earliest() const { return std::min(rise.lo, fall.lo); }
};

struct IntervalStaResult {
  /// arrival[net].rise = [earliest, latest] rising-edge arrival from the
  /// primary inputs (PIs launch both polarities at t = 0).
  std::vector<EdgeTimes> arrival;
  /// Latest allowed arrival per polarity for the clock period (+inf when no
  /// output is reachable from the net with that polarity).
  std::vector<double> required_rise;
  std::vector<double> required_fall;
  /// slack[net] = [guaranteed, optimistic]: lo is the slack certain to be
  /// available whatever edge actually occurs (required - latest arrival,
  /// worst polarity); hi assumes every edge arrives at its earliest bound.
  /// Nets that reach no output are clamped against the clock period.
  std::vector<Interval> slack;
  double critical_delay = 0.0;  ///< max latest arrival over the outputs
  double clock_period = 0.0;

  [[nodiscard]] double slack_at(logic::NetId net) const;
};

/// Run the four-value STA. `clock_period` <= 0 means "use the critical
/// delay" (zero guaranteed slack on the critical path).
[[nodiscard]] IntervalStaResult run_interval_sta(
    const logic::Netlist& netlist, const logic::GateTimingLibrary& library,
    double clock_period = 0.0);

/// Worst-case (over launch polarity) delay of one concrete path, tracking
/// edge polarity gate by gate — the polarity-correct replacement for
/// "levels x max(delay_rise, delay_fall)".
[[nodiscard]] double path_delay_worst(const logic::Netlist& netlist,
                                      const logic::GateTimingLibrary& library,
                                      const logic::Path& path);

struct SlackPath {
  logic::Path path;
  double delay = 0.0;  ///< worst-case polarity-tracked path delay
  double slack = 0.0;  ///< clock_period - delay
};

/// The `k` PI->PO paths of largest slack (= smallest worst-case delay),
/// best-first branch-and-bound on per-(net, polarity) suffix lower bounds.
/// Slack is measured against `sta.clock_period`, the caller's pass over the
/// same netlist and library. The search expands at most 2^18 nodes.
/// Deterministic: sorted by (delay, path nets lexicographically).
[[nodiscard]] std::vector<SlackPath> k_slackiest_paths(
    const logic::Netlist& netlist, const logic::GateTimingLibrary& library,
    const IntervalStaResult& sta, std::size_t k);

/// Fault sites (gate outputs) whose guaranteed slack (`slack.lo`) is at
/// least `min_slack`: a defect there is invisible to delay testing until it
/// eats that much delay, so these are the pulse method's target population.
[[nodiscard]] std::vector<logic::NetId> slack_sites(
    const logic::Netlist& netlist, const IntervalStaResult& sta,
    double min_slack);

}  // namespace ppd::sta
