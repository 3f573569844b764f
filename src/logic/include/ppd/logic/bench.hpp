// ISCAS-85/89 ".bench" format support: parser, writer, the authentic c17
// benchmark, and a deterministic synthetic generator producing C432-class
// circuits (36 PIs / 7 POs / ~160 NAND-NOR-NOT gates). The generator is the
// documented substitution for the real C432 netlist (see DESIGN.md): the
// Fig. 11 experiment only needs a population of structurally diverse paths,
// and the parser accepts a real c432.bench drop-in.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "ppd/logic/netlist.hpp"

namespace ppd::logic {

/// Parse .bench text through the one .bench scanner (lint::scan_bench).
/// When the scan reports any error-severity diagnostic, throws lint::LintError
/// (a ParseError) carrying every error, located as `source`:line. Otherwise
/// builds the netlist: inputs first in INPUT declaration order, then gates
/// in repeated passes over the gate lines in file order, each added once all
/// its fanins exist; outputs are marked in first-declaration order.
[[nodiscard]] Netlist parse_bench(const std::string& text,
                                  const std::string& source = "<string>");

/// Read a .bench file from disk and parse it with `path` as the source.
/// An unreadable file throws ParseError.
[[nodiscard]] Netlist load_bench_file(const std::string& path);

/// Serialize back to .bench text (INPUT/OUTPUT decls then gate lines in
/// topological order).
[[nodiscard]] std::string write_bench(const Netlist& netlist);

/// The authentic ISCAS-85 c17 netlist (6 NAND2 gates).
[[nodiscard]] Netlist c17();

/// Options for the synthetic benchmark generator.
struct SyntheticOptions {
  std::size_t inputs = 36;
  std::size_t outputs = 7;
  std::size_t gates = 160;
  std::uint64_t seed = 432;
  std::size_t max_fanin = 3;
};

/// Deterministic pseudo-random combinational circuit out of
/// NAND2/NAND3/NOR2/NOR3/NOT — the C432-class substitute.
[[nodiscard]] Netlist synthetic_benchmark(const SyntheticOptions& options);

}  // namespace ppd::logic
