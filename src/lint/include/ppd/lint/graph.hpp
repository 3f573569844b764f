// Neutral gate-graph IR for structural netlist lint.
//
// ppd::lint sits below ppd::logic so that load-time validation does not
// create a dependency cycle: the .bench front end (bench_lint.hpp) builds
// this IR straight from text — including text with errors — and
// ppd::logic builds its Netlist from it (logic::parse_bench) or adapts an
// already-built Netlist into it (logic/lint.hpp).
//
// Checks (stable codes):
//   PPD001 error   combinational cycle (Tarjan SCC)
//   PPD002 error   undriven net (referenced, never driven)
//   PPD003 error   multi-driven net
//   PPD004 warning floating primary input (drives nothing)
//   PPD005 warning dead gate (cannot reach any primary output)
//   PPD006 warning unreachable gate (no primary input in its fanin cone)
//   PPD007 note    fanout histogram
//   PPD008 warning excessive fanout
//   PPD010 error   no primary outputs
//   PPD011 error   no primary inputs
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ppd/lint/diagnostic.hpp"

namespace ppd::lint {

/// One net/gate of the neutral graph. A net is *undriven* when it is
/// neither a primary input nor defined by a gate (the front ends create
/// placeholder nodes for such dangling references).
struct GraphNode {
  std::string name;
  std::string kind;               ///< gate type label for messages ("NAND", ...)
  std::vector<std::size_t> fanin; ///< indices into NetGraph::nodes
  bool is_input = false;          ///< declared primary input
  bool is_output = false;         ///< declared primary output
  bool driven = false;            ///< defined by a gate line (or is_input)
  /// Drivers seen by the front end: INPUT declarations and gate definitions
  /// both count. > 1 raises PPD003 (the fanin kept is the first driver's).
  int driver_count = 0;
  int line = 0;                   ///< 1-based source line, 0 = unknown
};

struct NetGraph {
  std::string source;  ///< file name for diagnostics (may be empty)
  std::vector<GraphNode> nodes;

  /// Location string for node `i`: "file:line" when known, else the name.
  [[nodiscard]] std::string where(std::size_t i) const;
};

struct GraphLintOptions {
  /// Fanout above this raises PPD008.
  std::size_t max_fanout = 32;
  /// Emit the PPD007 fanout-histogram note.
  bool fanout_histogram = true;
};

/// Run every structural check over `graph`.
[[nodiscard]] Report lint_graph(const NetGraph& graph,
                                const GraphLintOptions& options = {});

}  // namespace ppd::lint
