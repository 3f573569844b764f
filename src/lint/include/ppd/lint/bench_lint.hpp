// The .bench front end: the one grammar every netlist load goes through.
//
// The scanner reads the whole file, records every defect it sees, builds
// the neutral NetGraph (placeholder nodes stand in for undriven references,
// the first driver wins on multi-driven nets) and then runs the structural
// checks of graph.hpp. It therefore diagnoses *all* problems of a bad
// netlist in one pass, with file:line locations. When it finds no error,
// ppd::logic::parse_bench builds the Netlist from the same scan.
//
// Front-end codes (on top of the PPD00x structural set):
//   PPD012 warning duplicate OUTPUT declaration
//   PPD013 error   syntax error (missing ')', missing '=', unknown type,
//                  empty operand, NOT/BUF without exactly one operand, ...)
//   PPD014 error   OUTPUT declares a net that is never defined
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ppd/lint/diagnostic.hpp"
#include "ppd/lint/graph.hpp"

namespace ppd::lint {

struct BenchLintOptions {
  GraphLintOptions graph;
};

/// Everything one scan of .bench text yields. Gate nodes carry the
/// canonical type name (BUF, NOT, AND, OR, NAND, NOR, XOR, XNOR; BUFF and
/// INV are read as BUF and NOT). The lists index `graph.nodes` in file
/// order; when `report` holds no error they describe a well-formed netlist.
struct BenchScan {
  Report report;
  NetGraph graph;
  std::vector<std::size_t> inputs;   ///< every INPUT declaration
  std::vector<std::size_t> gates;    ///< the first driver line of each gate net
  std::vector<std::size_t> outputs;  ///< the first OUTPUT declaration of each net
};

/// Scan .bench text. `source` names the input in diagnostics.
[[nodiscard]] BenchScan scan_bench(const std::string& text,
                                   const std::string& source = "<string>",
                                   const BenchLintOptions& options = {});

/// Lint .bench text: the report of scan_bench.
[[nodiscard]] Report lint_bench_text(const std::string& text,
                                     const std::string& source = "<string>",
                                     const BenchLintOptions& options = {});

/// Lint a .bench file from disk; a missing/unreadable file is itself an
/// error-severity diagnostic (PPD013), not an exception.
[[nodiscard]] Report lint_bench_file(const std::string& path,
                                     const BenchLintOptions& options = {});

}  // namespace ppd::lint
