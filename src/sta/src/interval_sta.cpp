#include "ppd/sta/interval_sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "ppd/util/error.hpp"

namespace ppd::sta {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Branch-and-bound expansion cap of k_slackiest_paths.
constexpr std::size_t kSlackiestNodeBudget = std::size_t{1} << 18;

}  // namespace

EdgeCause edge_cause(logic::LogicKind kind) {
  using logic::LogicKind;
  switch (kind) {
    case LogicKind::kInput:
    case LogicKind::kBuf:
    case LogicKind::kAnd:
    case LogicKind::kOr: return EdgeCause::kSame;
    case LogicKind::kNot:
    case LogicKind::kNand:
    case LogicKind::kNor: return EdgeCause::kInverted;
    case LogicKind::kXor:
    case LogicKind::kXnor: return EdgeCause::kEither;
  }
  return EdgeCause::kSame;
}

double IntervalStaResult::slack_at(logic::NetId net) const {
  PPD_REQUIRE(net < slack.size(), "net id out of range");
  return slack[net].lo;
}

IntervalStaResult run_interval_sta(const logic::Netlist& netlist,
                                   const logic::GateTimingLibrary& library,
                                   double clock_period) {
  const std::size_t n = netlist.size();
  IntervalStaResult res;
  res.arrival.assign(n, EdgeTimes{});
  res.required_rise.assign(n, kInf);
  res.required_fall.assign(n, kInf);
  res.slack.assign(n, Interval{});

  const auto order = netlist.topological_order();

  // Forward: per-polarity arrival windows. A window's low end is the
  // earliest any causing input edge can switch the output (best case over
  // fanins); the high end is the latest (worst case over fanins).
  for (logic::NetId id : order) {
    const logic::Gate& g = netlist.gate(id);
    if (g.kind == logic::LogicKind::kInput) {
      res.arrival[id] = EdgeTimes{Interval::point(0.0), Interval::point(0.0)};
      continue;
    }
    const logic::GateTiming& t = library.timing(g.kind);
    const EdgeCause cause = edge_cause(g.kind);
    Interval rise_src{kInf, -kInf};
    Interval fall_src{kInf, -kInf};
    for (logic::NetId f : g.fanin) {
      const EdgeTimes& a = res.arrival[f];
      Interval r;  // input window able to cause an output rise
      Interval fl;
      switch (cause) {
        case EdgeCause::kSame: r = a.rise; fl = a.fall; break;
        case EdgeCause::kInverted: r = a.fall; fl = a.rise; break;
        case EdgeCause::kEither: r = hull(a.rise, a.fall); fl = r; break;
      }
      rise_src = {std::min(rise_src.lo, r.lo), std::max(rise_src.hi, r.hi)};
      fall_src = {std::min(fall_src.lo, fl.lo), std::max(fall_src.hi, fl.hi)};
    }
    res.arrival[id].rise = rise_src + t.delay_rise;
    res.arrival[id].fall = fall_src + t.delay_fall;
  }

  for (logic::NetId o : netlist.outputs())
    res.critical_delay = std::max(res.critical_delay, res.arrival[o].latest());
  res.clock_period = clock_period > 0.0 ? clock_period : res.critical_delay;

  // Backward: per-polarity required times. An output rise required at r
  // constrains the causing input polarity at r - delay_rise.
  for (logic::NetId o : netlist.outputs()) {
    res.required_rise[o] = std::min(res.required_rise[o], res.clock_period);
    res.required_fall[o] = std::min(res.required_fall[o], res.clock_period);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const logic::NetId id = *it;
    const logic::Gate& g = netlist.gate(id);
    if (g.kind == logic::LogicKind::kInput) continue;
    const logic::GateTiming& t = library.timing(g.kind);
    const EdgeCause cause = edge_cause(g.kind);
    const double via_rise = res.required_rise[id] - t.delay_rise;
    const double via_fall = res.required_fall[id] - t.delay_fall;
    for (logic::NetId f : g.fanin) {
      switch (cause) {
        case EdgeCause::kSame:
          res.required_rise[f] = std::min(res.required_rise[f], via_rise);
          res.required_fall[f] = std::min(res.required_fall[f], via_fall);
          break;
        case EdgeCause::kInverted:
          res.required_fall[f] = std::min(res.required_fall[f], via_rise);
          res.required_rise[f] = std::min(res.required_rise[f], via_fall);
          break;
        case EdgeCause::kEither: {
          const double via = std::min(via_rise, via_fall);
          res.required_rise[f] = std::min(res.required_rise[f], via);
          res.required_fall[f] = std::min(res.required_fall[f], via);
          break;
        }
      }
    }
  }

  // Slack windows. Nets reaching no output keep +inf required times; clamp
  // them against the clock period for finite reporting.
  for (logic::NetId id = 0; id < n; ++id) {
    const EdgeTimes& a = res.arrival[id];
    const double rr = std::isinf(res.required_rise[id]) ? res.clock_period
                                                        : res.required_rise[id];
    const double rf = std::isinf(res.required_fall[id]) ? res.clock_period
                                                        : res.required_fall[id];
    res.slack[id].lo = std::min(rr - a.rise.hi, rf - a.fall.hi);
    res.slack[id].hi = std::min(rr - a.rise.lo, rf - a.fall.lo);
  }
  return res;
}

namespace {

/// Polarity-pair DP step: accumulated worst delays (rise, fall) of the
/// current edge through one more gate. Unreachable polarity = -inf.
struct PolCost {
  double rise = -kInf;
  double fall = -kInf;

  [[nodiscard]] double worst() const { return std::max(rise, fall); }
};

PolCost step(const PolCost& c, const logic::GateTiming& t, EdgeCause cause) {
  PolCost out;
  switch (cause) {
    case EdgeCause::kSame:
      if (c.rise > -kInf) out.rise = c.rise + t.delay_rise;
      if (c.fall > -kInf) out.fall = c.fall + t.delay_fall;
      break;
    case EdgeCause::kInverted:
      if (c.fall > -kInf) out.rise = c.fall + t.delay_rise;
      if (c.rise > -kInf) out.fall = c.rise + t.delay_fall;
      break;
    case EdgeCause::kEither: {
      const double w = c.worst();
      if (w > -kInf) {
        out.rise = w + t.delay_rise;
        out.fall = w + t.delay_fall;
      }
      break;
    }
  }
  return out;
}

}  // namespace

double path_delay_worst(const logic::Netlist& netlist,
                        const logic::GateTimingLibrary& library,
                        const logic::Path& path) {
  PPD_REQUIRE(!path.nets.empty(), "empty path");
  PolCost c{0.0, 0.0};  // a PI launches either polarity at t = 0
  for (std::size_t i = 1; i < path.nets.size(); ++i) {
    const logic::Gate& g = netlist.gate(path.nets[i]);
    c = step(c, library.timing(g.kind), edge_cause(g.kind));
  }
  return c.worst();
}

std::vector<SlackPath> k_slackiest_paths(const logic::Netlist& netlist,
                                         const logic::GateTimingLibrary& library,
                                         const IntervalStaResult& sta,
                                         std::size_t k) {
  std::vector<SlackPath> out;
  if (k == 0 || netlist.outputs().empty()) return out;
  const std::size_t n = netlist.size();

  // Suffix lower bounds h[net][pol]: the least extra worst-case delay any
  // completion to an output can add, entering `net` with that edge
  // polarity. Reverse-topological min over fanouts; admissible because the
  // DP's max-over-polarities can only grow along a real completion.
  std::vector<double> h_rise(n, kInf);
  std::vector<double> h_fall(n, kInf);
  const auto order = netlist.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const logic::NetId id = *it;
    if (netlist.is_output(id)) {
      h_rise[id] = 0.0;
      h_fall[id] = 0.0;
    }
    for (logic::NetId g : netlist.fanout(id)) {
      const logic::GateTiming& t = library.timing(netlist.gate(g).kind);
      switch (edge_cause(netlist.gate(g).kind)) {
        case EdgeCause::kSame:
          h_rise[id] = std::min(h_rise[id], t.delay_rise + h_rise[g]);
          h_fall[id] = std::min(h_fall[id], t.delay_fall + h_fall[g]);
          break;
        case EdgeCause::kInverted:
          h_fall[id] = std::min(h_fall[id], t.delay_rise + h_rise[g]);
          h_rise[id] = std::min(h_rise[id], t.delay_fall + h_fall[g]);
          break;
        case EdgeCause::kEither: {
          const double via = std::min(t.delay_rise + h_rise[g],
                                      t.delay_fall + h_fall[g]);
          h_rise[id] = std::min(h_rise[id], via);
          h_fall[id] = std::min(h_fall[id], via);
          break;
        }
      }
    }
  }

  struct Node {
    double bound = 0.0;  ///< prefix DP + suffix lower bound
    PolCost cost;
    std::vector<logic::NetId> nets;

    bool operator>(const Node& other) const {
      if (bound != other.bound) return bound > other.bound;
      return nets > other.nets;  // deterministic tie-break
    }
  };

  const auto bound_of = [&](const PolCost& c, logic::NetId net) {
    double b = -kInf;
    if (c.rise > -kInf) b = std::max(b, c.rise + h_rise[net]);
    if (c.fall > -kInf) b = std::max(b, c.fall + h_fall[net]);
    return b;
  };

  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> open;
  for (logic::NetId pi : netlist.inputs()) {
    Node seed;
    seed.cost = PolCost{0.0, 0.0};
    seed.nets = {pi};
    seed.bound = bound_of(seed.cost, pi);
    if (std::isfinite(seed.bound)) open.push(std::move(seed));
  }

  std::size_t expanded = 0;
  while (!open.empty() && out.size() < k && expanded < kSlackiestNodeBudget) {
    Node node = open.top();
    open.pop();
    ++expanded;
    const logic::NetId tip = node.nets.back();
    if (netlist.is_output(tip)) {
      SlackPath sp;
      sp.path.nets = node.nets;
      sp.delay = node.cost.worst();
      sp.slack = sta.clock_period - sp.delay;
      out.push_back(std::move(sp));
      // An output with further fanout may still extend to a deeper output;
      // fall through and keep expanding.
    }
    for (logic::NetId g : netlist.fanout(tip)) {
      const logic::Gate& gate = netlist.gate(g);
      Node next;
      next.cost = step(node.cost, library.timing(gate.kind),
                       edge_cause(gate.kind));
      next.nets = node.nets;
      next.nets.push_back(g);
      next.bound = bound_of(next.cost, g);
      if (std::isfinite(next.bound)) open.push(std::move(next));
    }
  }
  return out;
}

std::vector<logic::NetId> slack_sites(const logic::Netlist& netlist,
                                      const IntervalStaResult& sta,
                                      double min_slack) {
  std::vector<logic::NetId> sites;
  for (logic::NetId id = 0; id < netlist.size(); ++id) {
    if (netlist.gate(id).kind == logic::LogicKind::kInput) continue;
    if (sta.slack[id].lo >= min_slack) sites.push_back(id);
  }
  return sites;
}

}  // namespace ppd::sta
