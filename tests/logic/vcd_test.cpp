// VCD export.
#include <gtest/gtest.h>

#include "ppd/logic/bench.hpp"
#include "ppd/logic/vcd.hpp"
#include "ppd/util/error.hpp"

namespace ppd::logic {
namespace {

TEST(Vcd, HeaderAndChangesWellFormed) {
  const Netlist nl = c17();
  std::vector<Stimulus> stim(nl.inputs().size());
  stim[2].initial = true;  // input "3"
  stim[0] = Stimulus::pulse(false, 1e-9, 0.4e-9);  // input "1"
  const auto res = simulate(nl, stim);
  const std::string vcd = vcd_to_string(nl, res);

  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  // One $var per net.
  std::size_t vars = 0, pos = 0;
  while ((pos = vcd.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    pos += 1;
  }
  EXPECT_EQ(vars, nl.size());
  // The input pulse shows up as a #1000 timestamp (1 ns / 1 ps).
  EXPECT_NE(vcd.find("#1000"), std::string::npos);
}

TEST(Vcd, NetSubsetAndValidation) {
  const Netlist nl = c17();
  std::vector<Stimulus> stim(nl.inputs().size());
  const auto res = simulate(nl, stim);
  VcdOptions o;
  o.nets = {nl.find("22")};
  const std::string vcd = vcd_to_string(nl, res, o);
  EXPECT_NE(vcd.find(" 22 $end"), std::string::npos);
  EXPECT_EQ(vcd.find(" 23 $end"), std::string::npos);
  o.nets = {999};
  EXPECT_THROW(vcd_to_string(nl, res, o), PreconditionError);
}

}  // namespace
}  // namespace ppd::logic
