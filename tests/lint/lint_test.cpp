// ppd::lint contract tests: stable PPD0xx/1xx/2xx codes on seeded defects,
// clean passes on the bundled netlists, reporter output (text + JSON),
// severity/suppression filtering, and the load-time gates in ppd::logic
// and ppd::spice.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "ppd/lint/bench_lint.hpp"
#include "ppd/lint/diagnostic.hpp"
#include "ppd/lint/graph.hpp"
#include "ppd/lint/spice_lint.hpp"
#include "ppd/logic/attenuation.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/logic/lint.hpp"
#include "ppd/spice/analysis.hpp"
#include "ppd/spice/circuit.hpp"
#include "ppd/spice/lint.hpp"

namespace ppd {
namespace {

using lint::Report;
using lint::Severity;

bool has_code(const Report& report, const std::string& code) {
  for (const auto& d : report.diagnostics())
    if (d.code == code) return true;
  return false;
}

std::size_t count_code(const Report& report, const std::string& code) {
  std::size_t n = 0;
  for (const auto& d : report.diagnostics())
    if (d.code == code) ++n;
  return n;
}

/// The bundled netlists live in data/; the test may run from the build tree.
std::string find_data(const std::string& name) {
  for (const char* prefix : {"data/", "../data/", "../../data/", "../../../data/"}) {
    const std::string cand = prefix + name;
    std::ifstream probe(cand);
    if (probe) return cand;
  }
  return {};
}

// ------------------------------------------------------------- diagnostics

TEST(Diagnostics, SeverityNamesRoundTrip) {
  EXPECT_STREQ(lint::severity_name(Severity::kNote), "note");
  EXPECT_STREQ(lint::severity_name(Severity::kWarning), "warning");
  EXPECT_STREQ(lint::severity_name(Severity::kError), "error");
  EXPECT_EQ(lint::severity_from_string("Warning"), Severity::kWarning);
  EXPECT_EQ(lint::severity_from_string("ERROR"), Severity::kError);
  EXPECT_THROW((void)lint::severity_from_string("fatal"), ParseError);
}

TEST(Diagnostics, FilteringBySeverityAndSuppression) {
  Report report;
  report.add(Severity::kNote, "PPD007", "f", "histogram");
  report.add(Severity::kWarning, "PPD004", "f", "floating input");
  report.add(Severity::kError, "PPD001", "f", "cycle");
  EXPECT_EQ(report.count(Severity::kNote), 1u);
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
  EXPECT_EQ(report.count(Severity::kError), 1u);
  EXPECT_TRUE(report.has_errors());

  lint::LintOptions warnings_up;
  warnings_up.min_severity = Severity::kWarning;
  const Report filtered = report.filtered(warnings_up);
  EXPECT_EQ(filtered.diagnostics().size(), 2u);
  EXPECT_FALSE(has_code(filtered, "PPD007"));

  lint::LintOptions suppressed;
  suppressed.suppress = {"PPD001", "PPD004"};
  const Report rest = report.filtered(suppressed);
  EXPECT_EQ(rest.diagnostics().size(), 1u);
  EXPECT_FALSE(rest.has_errors());
}

TEST(Diagnostics, KnownCodesCoverEveryFamily) {
  const auto& codes = lint::known_codes();
  EXPECT_FALSE(codes.empty());
  for (const char* c : {"PPD001", "PPD014", "PPD101", "PPD110", "PPD201",
                        "PPD207", "PPD301", "PPD304"})
    EXPECT_TRUE(lint::is_known_code(c)) << c;
  EXPECT_FALSE(lint::is_known_code("PPD999"));
  EXPECT_FALSE(lint::is_known_code("PPD3"));
  EXPECT_FALSE(lint::is_known_code("ppd001"));  // codes are case-sensitive
}

TEST(Diagnostics, ParseSuppressListValidatesCodes) {
  EXPECT_EQ(lint::parse_suppress_list("PPD001"),
            (std::vector<std::string>{"PPD001"}));
  EXPECT_EQ(lint::parse_suppress_list(" PPD004 , PPD301 "),
            (std::vector<std::string>{"PPD004", "PPD301"}));
  // Empty fields and the empty list are fine (no suppression).
  EXPECT_TRUE(lint::parse_suppress_list("").empty());
  EXPECT_TRUE(lint::parse_suppress_list(" , ,").empty());
  // Unknown or malformed codes are hard errors, not silently dead filters.
  EXPECT_THROW((void)lint::parse_suppress_list("PPD999"), ParseError);
  EXPECT_THROW((void)lint::parse_suppress_list("PPD001,PPD9999"), ParseError);
  EXPECT_THROW((void)lint::parse_suppress_list("301"), ParseError);
  EXPECT_THROW((void)lint::parse_suppress_list("PPD001;PPD004"), ParseError);
}

TEST(Diagnostics, TextReporterFormat) {
  Report report;
  report.add(Severity::kError, "PPD001", "f.bench:3", "combinational cycle",
             "break the loop");
  const std::string text = lint::to_text(report);
  EXPECT_NE(text.find("error PPD001 [f.bench:3]: combinational cycle"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hint: break the loop"), std::string::npos) << text;
  EXPECT_NE(text.find("1 error"), std::string::npos) << text;
}

TEST(Diagnostics, JsonReporterShapeAndEscaping) {
  Report report;
  report.add(Severity::kWarning, "PPD004", "a\\b", "quote \" and\nnewline");
  const std::string json = lint::to_json(report);
  EXPECT_NE(json.find("\"code\":\"PPD004\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos) << json;
  EXPECT_NE(json.find("a\\\\b"), std::string::npos) << json;
  EXPECT_NE(json.find("quote \\\" and\\nnewline"), std::string::npos) << json;
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\":0"), std::string::npos) << json;
}

TEST(Diagnostics, ThrowOnErrorCarriesTheReport) {
  Report report;
  report.add(Severity::kError, "PPD002", "n1", "undriven");
  report.add(Severity::kError, "PPD003", "n2", "two drivers");
  try {
    report.throw_on_error("bad.bench");
    FAIL() << "expected LintError";
  } catch (const lint::LintError& e) {
    EXPECT_EQ(e.report().diagnostics().size(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.bench"), std::string::npos) << what;
    EXPECT_NE(what.find("PPD002"), std::string::npos) << what;
  }
  Report clean;
  clean.add(Severity::kWarning, "PPD004", "n", "floating");
  EXPECT_NO_THROW(clean.throw_on_error("ok"));
}

// -------------------------------------------------------------- bench lint

TEST(BenchLint, CombinationalCycleIsPpd001) {
  const Report r = lint::lint_bench_text(R"(INPUT(a)
OUTPUT(y)
b = AND(a, c)
c = NOT(b)
y = OR(b, a)
)");
  EXPECT_TRUE(has_code(r, "PPD001"));
  EXPECT_TRUE(r.has_errors());
}

TEST(BenchLint, UndrivenNetIsPpd002) {
  const Report r = lint::lint_bench_text(R"(INPUT(a)
OUTPUT(y)
y = AND(a, ghost)
)");
  EXPECT_TRUE(has_code(r, "PPD002"));
}

TEST(BenchLint, MultiDrivenNetIsPpd003) {
  const Report r = lint::lint_bench_text(R"(INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
y = OR(a, b)
)");
  EXPECT_TRUE(has_code(r, "PPD003"));
}

TEST(BenchLint, FloatingInputIsPpd004) {
  const Report r = lint::lint_bench_text(R"(INPUT(a)
INPUT(unused)
OUTPUT(y)
y = NOT(a)
)");
  EXPECT_TRUE(has_code(r, "PPD004"));
  EXPECT_FALSE(r.has_errors());  // a floating input is only a warning
}

TEST(BenchLint, SyntaxProblemsArePpd013WithLineNumbers) {
  const Report r = lint::lint_bench_text(R"(INPUT(a
OUTPUT(y)
y FOO a
z = FROB(a)
)", "bad.bench");
  EXPECT_GE(count_code(r, "PPD013"), 3u);
  bool line_1 = false;
  for (const auto& d : r.diagnostics())
    line_1 = line_1 || d.location == "bad.bench:1";
  EXPECT_TRUE(line_1);
}

TEST(BenchLint, UnaryGateArityIsPpd013) {
  // NOT and BUF take exactly one operand; a netlist that gives them more
  // must not load (evaluation would fail a precondition later on).
  const std::string text = R"(INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
y = NOT(a, b)
z = BUFF(a, b)
)";
  const Report r = lint::lint_bench_text(text, "arity.bench");
  ASSERT_EQ(count_code(r, "PPD013"), 2u) << to_text(r);
  EXPECT_EQ(r.count(Severity::kError), 2u) << to_text(r);
  EXPECT_EQ(r.diagnostics()[0].location, "arity.bench:5");
  EXPECT_EQ(r.diagnostics()[0].message, "NOT gate 'y' takes one operand, got 2");
  EXPECT_EQ(r.diagnostics()[1].message, "BUFF gate 'z' takes one operand, got 2");
  EXPECT_THROW((void)logic::parse_bench(text), lint::LintError);
}

TEST(BenchLint, OutputDeclarationsChecked) {
  const Report r = lint::lint_bench_text(R"(INPUT(a)
OUTPUT(y)
OUTPUT(y)
OUTPUT(never)
y = NOT(a)
)");
  EXPECT_TRUE(has_code(r, "PPD012"));
  EXPECT_TRUE(has_code(r, "PPD014"));
}

TEST(BenchLint, MissingInterfaceIsPpd010And011) {
  const Report r = lint::lint_bench_text("x = NOT(x)\n");
  EXPECT_TRUE(has_code(r, "PPD010"));
  EXPECT_TRUE(has_code(r, "PPD011"));
  EXPECT_TRUE(has_code(r, "PPD001"));  // the self-loop
}

TEST(BenchLint, LenientScannerReportsAllDefectsAtOnce) {
  // One pass over one bad file finds every independent problem.
  const Report r = lint::lint_bench_text(R"(INPUT(a)
INPUT(unused)
OUTPUT(y)
u = AND(a, ghost)
u = OR(a, a)
y = NOT(u)
)");
  EXPECT_TRUE(has_code(r, "PPD002"));
  EXPECT_TRUE(has_code(r, "PPD003"));
  EXPECT_TRUE(has_code(r, "PPD004"));
}

TEST(BenchLint, UnreadableFileIsAnErrorDiagnostic) {
  const Report r = lint::lint_bench_file("/nonexistent/nope.bench");
  EXPECT_TRUE(has_code(r, "PPD013"));
  EXPECT_TRUE(r.has_errors());
}

TEST(BenchLint, CleanNetlistHasNoFindings) {
  const Report r = lint::lint_bench_text(logic::write_bench(logic::c17()));
  EXPECT_EQ(r.count(Severity::kError), 0u);
  EXPECT_EQ(r.count(Severity::kWarning), 0u);
  EXPECT_TRUE(has_code(r, "PPD007"));  // the histogram note is always there
}

TEST(BenchLint, BundledNetlistsLintClean) {
  for (const char* name : {"c17.bench", "c432_class.bench"}) {
    const std::string path = find_data(name);
    if (path.empty()) GTEST_SKIP() << "data/ not reachable from cwd";
    const Report r = lint::lint_bench_file(path);
    EXPECT_EQ(r.count(Severity::kError), 0u) << name << "\n" << to_text(r);
    EXPECT_EQ(r.count(Severity::kWarning), 0u) << name << "\n" << to_text(r);
  }
}

// --------------------------------------------------- load-time gate (logic)

TEST(BenchLint, LoadBenchFileThrowsLintErrorWithFullReport) {
  const std::string path = ::testing::TempDir() + "/ppd_lint_bad.bench";
  {
    std::ofstream f(path);
    f << "INPUT(a)\nOUTPUT(y)\nb = AND(a, c)\nc = NOT(b)\ny = OR(b, ghost)\n";
  }
  try {
    (void)logic::load_bench_file(path);
    FAIL() << "expected LintError";
  } catch (const lint::LintError& e) {
    // Both independent defects arrive in one throw: the cycle AND the
    // undriven reference.
    EXPECT_TRUE(has_code(e.report(), "PPD001")) << e.what();
    EXPECT_TRUE(has_code(e.report(), "PPD002")) << e.what();
  }
  // The gate throws a ParseError subclass: legacy catch sites still work.
  EXPECT_THROW((void)logic::load_bench_file(path), ParseError);
  std::remove(path.c_str());
}

TEST(LogicLint, NetlistAdapterFindsSemanticIssues) {
  const Report clean = logic::lint_netlist(logic::c17());
  EXPECT_EQ(clean.count(Severity::kError), 0u);
  EXPECT_EQ(clean.count(Severity::kWarning), 0u);

  logic::Netlist nl;
  const auto a = nl.add_input("a");
  nl.add_input("floater");
  nl.mark_output(nl.add_gate(logic::LogicKind::kNot, "y", {a}));
  const Report r = logic::lint_netlist(nl);
  EXPECT_TRUE(has_code(r, "PPD004"));
  EXPECT_FALSE(r.has_errors());
}

// --------------------------------------------------------------- deck lint

TEST(SpiceLint, NegativeResistanceIsPpd103) {
  const Report r = lint::lint_spice_deck_text(R"(* bad deck
V1 vdd 0 1.0
R1 vdd out -100
R2 out 0 1k
.end
)");
  EXPECT_TRUE(has_code(r, "PPD103"));
  EXPECT_TRUE(r.has_errors());
}

TEST(SpiceLint, FloatingIslandIsPpd101) {
  const Report r = lint::lint_spice_deck_text(R"(* island deck
V1 vdd 0 1.0
R1 vdd 0 1k
R2 a b 1k
.end
)");
  EXPECT_TRUE(has_code(r, "PPD101"));
}

TEST(SpiceLint, VoltageSourceLoopIsPpd106) {
  const Report r = lint::lint_spice_deck_text(R"(* vloop
V1 a 0 1.0
V2 a 0 2.0
R1 a 0 1k
.end
)");
  EXPECT_TRUE(has_code(r, "PPD106"));
}

TEST(SpiceLint, CapacitorOnlyNodeIsGminWarning) {
  const Report r = lint::lint_spice_deck_text(R"(* gmin node
V1 vdd 0 1.0
R1 vdd mid 1k
C1 mid 0 10f
C2 mid top 10f
.end
)");
  EXPECT_TRUE(has_code(r, "PPD102"));  // 'top' hangs off capacitors only
  EXPECT_FALSE(r.has_errors());
}

TEST(SpiceLint, MosfetParameterChecksArePpd105) {
  const Report r = lint::lint_spice_deck_text(R"(* mosfets
.model badn NMOS level=1 vto=-0.45 kp=170u lambda=0.05
V1 vdd 0 1.0
Vg g 0 1.0
M1 vdd g 0 0 badn w=-1u l=0.1u
R1 vdd 0 10k
.end
)");
  // Negative width and wrong-sign NMOS threshold are separate findings.
  EXPECT_GE(count_code(r, "PPD105"), 2u);
}

TEST(SpiceLint, UnknownCardAndUndefinedModelArePpd110) {
  const Report r = lint::lint_spice_deck_text(R"(* syntax
V1 a 0 1.0
R1 a 0 1k
Q1 a b c bjt
M1 a b 0 0 nomodel w=1u l=0.1u
.end
)");
  EXPECT_GE(count_code(r, "PPD110"), 2u);
}

TEST(SpiceLint, CleanDeckPasses) {
  const Report r = lint::lint_spice_deck_text(R"(* divider
V1 vdd 0 1.0
R1 vdd out 1k
R2 out 0 2k
C1 out 0 10f
.end
)");
  EXPECT_EQ(r.count(Severity::kError), 0u) << to_text(r);
  EXPECT_EQ(r.count(Severity::kWarning), 0u) << to_text(r);
}

TEST(SpiceLint, ImplausibleValueIsPpd107) {
  const Report r = lint::lint_spice_deck_text(R"(* unit slip
V1 vdd 0 1.0
R1 vdd 0 1e15
)");
  EXPECT_TRUE(has_code(r, "PPD107"));
  EXPECT_FALSE(r.has_errors());
}

// ------------------------------------------------- load-time gate (spice)

TEST(SpiceLint, ValidateCircuitThrowsOnIsland) {
  spice::Circuit c;
  const auto vdd = c.node("vdd");
  c.add_vsource("V1", vdd, 0, spice::Dc{1.0});
  c.add_resistor("R1", vdd, 0, 1e3);
  EXPECT_NO_THROW(spice::validate_circuit(c));

  c.add_resistor("R2", c.node("a"), c.node("b"), 1e3);
  EXPECT_THROW(spice::validate_circuit(c), lint::LintError);
}

TEST(SpiceLint, RunOpRejectsBrokenCircuitWithDiagnostics) {
  spice::Circuit c;
  const auto vdd = c.node("vdd");
  c.add_vsource("V1", vdd, 0, spice::Dc{1.0});
  c.add_resistor("R1", vdd, c.node("out"), 1e3);
  c.add_resistor("R2", c.find_node("out"), 0, 2e3);
  const auto op = spice::run_op(c);  // clean circuit still solves
  EXPECT_NEAR(op.voltage(c.find_node("out")), 1.0 * 2e3 / 3e3, 1e-6);

  spice::Circuit broken;
  const auto n = broken.node("vdd");
  broken.add_vsource("V1", n, 0, spice::Dc{1.0});
  broken.add_resistor("R1", broken.node("a"), broken.node("b"), 1e3);
  try {
    (void)spice::run_op(broken);
    FAIL() << "expected LintError";
  } catch (const lint::LintError& e) {
    EXPECT_TRUE(has_code(e.report(), "PPD101")) << e.what();
  }
}

// ----------------------------------------------------- pulse-test configs

logic::PulseTest c17_test(const logic::Netlist& nl) {
  // Path 1 -> 10 -> 22 with side inputs justified non-controlling:
  // inputs (1,2,3,6,7) = (0,0,1,1,0) gives 11=0, 16=1 on both phases.
  logic::PulseTest t;
  t.path.nets = {nl.find("1"), nl.find("10"), nl.find("22")};
  t.vector = {false, false, true, true, false};
  t.positive_pulse = true;
  t.w_in = 0.5e-9;
  t.w_th = 0.05e-9;
  return t;
}

TEST(PulseTestLint, WellFormedTestPasses) {
  const logic::Netlist nl = logic::c17();
  const auto lib = logic::GateTimingLibrary::generic();
  const Report r = logic::lint_pulse_test(nl, lib, c17_test(nl));
  EXPECT_EQ(r.count(Severity::kError), 0u) << to_text(r);
}

TEST(PulseTestLint, ControllingSideInputIsPpd201) {
  const logic::Netlist nl = logic::c17();
  const auto lib = logic::GateTimingLibrary::generic();
  logic::PulseTest t = c17_test(nl);
  t.vector[2] = false;  // input 3 = 0 controls NAND gate 10
  const Report r = logic::lint_pulse_test(nl, lib, t);
  EXPECT_TRUE(has_code(r, "PPD201"));
}

TEST(PulseTestLint, BrokenPathIsPpd202) {
  const logic::Netlist nl = logic::c17();
  const auto lib = logic::GateTimingLibrary::generic();
  logic::PulseTest t = c17_test(nl);
  t.path.nets = {nl.find("1"), nl.find("11")};  // 1 is not a fanin of 11
  const Report r = logic::lint_pulse_test(nl, lib, t);
  EXPECT_TRUE(has_code(r, "PPD202"));
}

TEST(PulseTestLint, NonPositiveWidthsArePpd203) {
  const logic::Netlist nl = logic::c17();
  const auto lib = logic::GateTimingLibrary::generic();
  logic::PulseTest t = c17_test(nl);
  t.w_in = 0.0;
  t.w_th = -1e-12;
  const Report r = logic::lint_pulse_test(nl, lib, t);
  EXPECT_EQ(count_code(r, "PPD203"), 2u);
}

TEST(PulseTestLint, InfeasibleThresholdIsPpd204) {
  const logic::Netlist nl = logic::c17();
  const auto lib = logic::GateTimingLibrary::generic();
  logic::PulseTest t = c17_test(nl);
  t.w_th = 10.0 * t.w_in;  // no chain output can exceed this
  const Report r = logic::lint_pulse_test(nl, lib, t);
  EXPECT_TRUE(has_code(r, "PPD204"));
}

TEST(PulseTestLint, VectorArityMismatchIsPpd206) {
  const logic::Netlist nl = logic::c17();
  const auto lib = logic::GateTimingLibrary::generic();
  logic::PulseTest t = c17_test(nl);
  t.vector.pop_back();
  const Report r = logic::lint_pulse_test(nl, lib, t);
  EXPECT_TRUE(has_code(r, "PPD206"));
}

}  // namespace
}  // namespace ppd
