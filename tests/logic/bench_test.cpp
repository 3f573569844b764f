#include "ppd/logic/bench.hpp"

#include <gtest/gtest.h>

#include "ppd/util/error.hpp"

namespace ppd::logic {
namespace {

TEST(BenchParser, ParsesC17) {
  const Netlist nl = c17();
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.gate_count(), 6u);
  // All gates are NAND2.
  for (NetId id = 0; id < nl.size(); ++id) {
    const Gate& g = nl.gate(id);
    if (g.kind == LogicKind::kInput) continue;
    EXPECT_EQ(g.kind, LogicKind::kNand);
    EXPECT_EQ(g.fanin.size(), 2u);
  }
}

TEST(BenchParser, C17TruthSpotChecks) {
  // 22 = NAND(10, 16), 10 = NAND(1,3), 16 = NAND(2, 11), 11 = NAND(3, 6).
  const Netlist nl = c17();
  // Inputs ordered as declared: 1, 2, 3, 6, 7.
  // Note the explicit bool return: vector<bool>'s operator[] yields a proxy
  // into the temporary, which must not escape the expression.
  auto out22 = [&](bool i1, bool i2, bool i3, bool i6, bool i7) -> bool {
    return nl.evaluate({i1, i2, i3, i6, i7})[nl.find("22")];
  };
  // All zero: 10 = 1, 11 = 1, 16 = NAND(0,1)=1 -> 22 = NAND(1,1) = 0.
  EXPECT_FALSE(out22(false, false, false, false, false));
  // 1=1,3=1 -> 10=0 -> 22=1 regardless of 16.
  EXPECT_TRUE(out22(true, false, true, false, false));
}

TEST(BenchParser, HandlesForwardReferencesAndComments) {
  const Netlist nl = parse_bench(
      "# comment\n"
      "INPUT(a)\n"
      "OUTPUT(y)\n"
      "y = NOT(m)\n"       // forward reference
      "m = BUF(a)\n");
  EXPECT_EQ(nl.gate_count(), 2u);
  EXPECT_EQ(nl.gate(nl.find("y")).kind, LogicKind::kNot);

  // Gate lines two levels out of topological order, INPUTs interleaved.
  // Net ids: inputs in declaration order, then gates by repeated passes
  // over the gate lines in file order, each added once its fanins exist.
  const Netlist deep = parse_bench(
      "INPUT(a)\n"
      "OUTPUT(z)\n"
      "y = NAND(p, q)\n"
      "INPUT(b)\n"
      "w = NOT(z)\n"
      "z = OR(y, a)\n"
      "p = NOT(m)\n"
      "q = AND(m, b)\n"
      "m = BUF(a)\n"
      "OUTPUT(w)\n"
      "OUTPUT(z)\n");
  const std::vector<std::string> by_id = {"a", "b", "m", "p", "q", "y", "z", "w"};
  ASSERT_EQ(deep.size(), by_id.size());
  for (NetId id = 0; id < by_id.size(); ++id)
    EXPECT_EQ(deep.gate(id).name, by_id[id]) << "net " << id;
  EXPECT_EQ(deep.outputs(), (std::vector<NetId>{6, 7}));
}

TEST(BenchParser, AcceptsAllGateTypes) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
      "g1 = AND(a, b)\n"
      "g2 = OR(a, b)\n"
      "g3 = XOR(g1, g2)\n"
      "g4 = XNOR(a, g3)\n"
      "g5 = NOR(g4, b)\n"
      "z = NAND(g5, a)\n");
  EXPECT_EQ(nl.gate_count(), 6u);
}

TEST(BenchParser, Errors) {
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\ny = FROB(a)\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("y = NOT(undefined_net)\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\ny = NOT(a\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\nINPUT(a)\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\na = NOT(a)\n")), ParseError);
}

TEST(BenchWriter, RoundTripsC17) {
  const Netlist nl = c17();
  const Netlist back = parse_bench(write_bench(nl));
  EXPECT_EQ(back.inputs().size(), nl.inputs().size());
  EXPECT_EQ(back.outputs().size(), nl.outputs().size());
  EXPECT_EQ(back.gate_count(), nl.gate_count());
  // Functional equivalence over all 32 input vectors.
  for (unsigned m = 0; m < 32; ++m) {
    std::vector<bool> in;
    for (unsigned b = 0; b < 5; ++b) in.push_back(((m >> b) & 1u) != 0);
    const auto v1 = nl.evaluate(in);
    const auto v2 = back.evaluate(in);
    for (NetId o : nl.outputs())
      EXPECT_EQ(v1[o], v2[back.find(nl.gate(o).name)]);
  }
}

TEST(Synthetic, MatchesRequestedShape) {
  SyntheticOptions opt;
  opt.inputs = 36;
  opt.outputs = 7;
  opt.gates = 160;
  const Netlist nl = synthetic_benchmark(opt);
  EXPECT_EQ(nl.inputs().size(), 36u);
  EXPECT_EQ(nl.outputs().size(), 7u);
  EXPECT_EQ(nl.gate_count(), 160u);
  EXPECT_GE(nl.depth(), 8u);  // deep enough for interesting paths
  EXPECT_NO_THROW(nl.topological_order());
}

TEST(Synthetic, DeterministicPerSeed) {
  SyntheticOptions opt;
  const std::string a = write_bench(synthetic_benchmark(opt));
  const std::string b = write_bench(synthetic_benchmark(opt));
  EXPECT_EQ(a, b);
  opt.seed = 433;
  EXPECT_NE(a, write_bench(synthetic_benchmark(opt)));
}

TEST(Synthetic, OnlyPrimitiveKinds) {
  const Netlist nl = synthetic_benchmark(SyntheticOptions{});
  for (NetId id = 0; id < nl.size(); ++id) {
    const LogicKind k = nl.gate(id).kind;
    EXPECT_TRUE(k == LogicKind::kInput || k == LogicKind::kNot ||
                k == LogicKind::kNand || k == LogicKind::kNor);
  }
}

}  // namespace
}  // namespace ppd::logic
