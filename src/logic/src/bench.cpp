#include "ppd/logic/bench.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "ppd/lint/bench_lint.hpp"
#include "ppd/mc/rng.hpp"
#include "ppd/util/error.hpp"

namespace ppd::logic {

namespace {

/// The LogicKind whose name is `name`, one of the scanner's canonical gate
/// types.
LogicKind kind_named(const std::string& name) {
  for (LogicKind kind : {LogicKind::kBuf, LogicKind::kNot, LogicKind::kAnd,
                         LogicKind::kOr, LogicKind::kNand, LogicKind::kNor,
                         LogicKind::kXor, LogicKind::kXnor})
    if (name == logic_kind_name(kind)) return kind;
  throw PreconditionError("not a canonical gate type: " + name);
}

}  // namespace

Netlist parse_bench(const std::string& text, const std::string& source) {
  const lint::BenchScan scan = lint::scan_bench(text, source);
  lint::LintOptions errors_only;
  errors_only.min_severity = lint::Severity::kError;
  scan.report.filtered(errors_only).throw_on_error(source);

  // No error means no cycle, no undriven or multi-driven net and one
  // definition per gate: every net below resolves.
  const auto& nodes = scan.graph.nodes;
  constexpr NetId kUnbuilt = ~NetId{0};
  std::vector<NetId> net(nodes.size(), kUnbuilt);
  Netlist nl;
  for (std::size_t i : scan.inputs) net[i] = nl.add_input(nodes[i].name);
  // Gates may reference forward: pass over the gate lines in file order
  // until each is added, adding a gate once all its fanins exist.
  std::vector<std::size_t> work = scan.gates;
  while (!work.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : work) {
      const lint::GraphNode& g = nodes[i];
      if (std::any_of(g.fanin.begin(), g.fanin.end(),
                      [&](std::size_t f) { return net[f] == kUnbuilt; })) {
        next.push_back(i);
        continue;
      }
      std::vector<NetId> fanin;
      for (std::size_t f : g.fanin) fanin.push_back(net[f]);
      net[i] = nl.add_gate(kind_named(g.kind), g.name, std::move(fanin));
    }
    PPD_REQUIRE(next.size() < work.size(), "acyclic scan left a gate unbuilt");
    work = std::move(next);
  }
  for (std::size_t i : scan.outputs) nl.mark_output(net[i]);
  return nl;
}

Netlist load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open .bench file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  Netlist nl = parse_bench(os.str(), path);
  nl.set_source(path);
  return nl;
}

std::string write_bench(const Netlist& netlist) {
  std::ostringstream os;
  os << "# " << netlist.inputs().size() << " inputs, "
     << netlist.outputs().size() << " outputs, " << netlist.gate_count()
     << " gates\n";
  for (NetId id : netlist.inputs())
    os << "INPUT(" << netlist.gate(id).name << ")\n";
  for (NetId id : netlist.outputs())
    os << "OUTPUT(" << netlist.gate(id).name << ")\n";
  for (NetId id : netlist.topological_order()) {
    const Gate& g = netlist.gate(id);
    if (g.kind == LogicKind::kInput) continue;
    os << g.name << " = " << logic_kind_name(g.kind) << '(';
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      if (i != 0) os << ", ";
      os << netlist.gate(g.fanin[i]).name;
    }
    os << ")\n";
  }
  return os.str();
}

Netlist c17() {
  // ISCAS-85 c17: 5 inputs, 2 outputs, 6 NAND2 gates.
  Netlist nl = parse_bench(R"(# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)");
  nl.set_source("<c17>");
  return nl;
}

Netlist synthetic_benchmark(const SyntheticOptions& options) {
  PPD_REQUIRE(options.inputs >= 2, "need at least two inputs");
  PPD_REQUIRE(options.outputs >= 1, "need at least one output");
  PPD_REQUIRE(options.gates >= options.outputs + 2, "too few gates");
  PPD_REQUIRE(options.max_fanin >= 2 && options.max_fanin <= 3,
              "max_fanin must be 2 or 3");

  mc::Rng rng(options.seed);
  const std::size_t n_in = options.inputs;
  const std::size_t n_total = n_in + options.gates;

  // Build the structure locally first (kinds + fanin lists over net ids
  // 0..n_total-1, inputs first), then repair dead gates before emitting.
  std::vector<LogicKind> kind(n_total, LogicKind::kInput);
  std::vector<std::vector<std::size_t>> fanin(n_total);
  std::vector<std::size_t> uses(n_total, 0);

  // Bias fanin selection toward recent and not-yet-consumed nets so the
  // circuit grows deep and leaves few dead gates to repair.
  const auto pick_net = [&](std::size_t limit) -> std::size_t {
    const double u = rng.uniform();
    if (u < 0.45) {
      // Recent window.
      const std::size_t window = std::min<std::size_t>(limit, 40);
      return limit - 1 - rng.below(window);
    }
    if (u < 0.80) {
      // Prefer an unconsumed net when one exists (scan a random offset).
      const std::size_t start = rng.below(limit);
      for (std::size_t k = 0; k < limit; ++k) {
        const std::size_t cand = (start + k) % limit;
        if (uses[cand] == 0) return cand;
      }
    }
    return rng.below(limit);
  };

  for (std::size_t g = 0; g < options.gates; ++g) {
    const std::size_t id = n_in + g;
    const double pick = rng.uniform();
    std::size_t fanin_count;
    if (pick < 0.15) {
      kind[id] = LogicKind::kNot;
      fanin_count = 1;
    } else if (pick < 0.60) {
      kind[id] = LogicKind::kNand;
      fanin_count = 2 + (options.max_fanin == 3 && rng.uniform() < 0.3 ? 1 : 0);
    } else {
      kind[id] = LogicKind::kNor;
      fanin_count = 2 + (options.max_fanin == 3 && rng.uniform() < 0.2 ? 1 : 0);
    }
    while (fanin[id].size() < fanin_count) {
      const std::size_t cand = pick_net(id);
      bool duplicate = false;
      for (std::size_t f : fanin[id]) duplicate = duplicate || f == cand;
      if (!duplicate) fanin[id].push_back(cand);
    }
    for (std::size_t f : fanin[id]) ++uses[f];
  }

  // Outputs: the last `outputs` gates.
  std::vector<char> is_out(n_total, 0);
  for (std::size_t i = 0; i < options.outputs; ++i)
    is_out[n_total - 1 - i] = 1;

  // Repair pass: every non-output gate must be consumed somewhere, or it
  // (and everything only feeding it) is dead logic no path can traverse.
  // Give each dead net a consumer by stealing a fanin slot of a later gate
  // whose current operand is consumed more than once (acyclic by id order).
  for (std::size_t id = n_total; id-- > n_in;) {
    if (uses[id] > 0 || is_out[id]) continue;
    bool repaired = false;
    for (std::size_t g = id + 1; g < n_total && !repaired; ++g) {
      for (std::size_t& slot : fanin[g]) {
        if (uses[slot] < 2) continue;
        bool duplicate = false;
        for (std::size_t f : fanin[g]) duplicate = duplicate || f == id;
        if (duplicate) break;
        --uses[slot];
        slot = id;
        ++uses[id];
        repaired = true;
        break;
      }
    }
    // Extremely unlikely fallback: promote to an extra output.
    if (!repaired) is_out[id] = 1;
  }

  Netlist nl;
  std::vector<NetId> emitted(n_total);
  for (std::size_t i = 0; i < n_in; ++i)
    emitted[i] = nl.add_input("I" + std::to_string(i));
  for (std::size_t g = 0; g < options.gates; ++g) {
    const std::size_t id = n_in + g;
    std::vector<NetId> fi;
    for (std::size_t f : fanin[id]) fi.push_back(emitted[f]);
    emitted[id] = nl.add_gate(kind[id], "G" + std::to_string(g), std::move(fi));
  }
  for (std::size_t id = n_in; id < n_total; ++id)
    if (is_out[id]) nl.mark_output(emitted[id]);
  nl.set_source("<synthetic seed " + std::to_string(options.seed) + ">");
  return nl;
}

}  // namespace ppd::logic
