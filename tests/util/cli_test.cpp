#include "ppd/util/cli.hpp"

#include <gtest/gtest.h>

#include "ppd/util/error.hpp"

namespace ppd::util {
namespace {

Cli make(std::initializer_list<const char*> args,
         const std::vector<std::string>& allowed) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data(), allowed);
}

TEST(Cli, ParsesKeyValue) {
  const Cli cli = make({"--samples=25", "--sigma=0.05"}, {"samples", "sigma"});
  EXPECT_EQ(cli.get("samples", 0), 25);
  EXPECT_DOUBLE_EQ(cli.get("sigma", 0.0), 0.05);
}

TEST(Cli, FlagWithoutValueReadsAsOne) {
  const Cli cli = make({"--csv"}, {"csv"});
  EXPECT_TRUE(cli.has("csv"));
  EXPECT_EQ(cli.get("csv", 0), 1);
}

TEST(Cli, DefaultsWhenAbsent) {
  const Cli cli = make({}, {"samples"});
  EXPECT_EQ(cli.get("samples", 42), 42);
  EXPECT_EQ(cli.get("samples", std::string("x")), "x");
}

TEST(Cli, RejectsUnknownOption) {
  EXPECT_THROW(make({"--bogus=1"}, {"samples"}), ParseError);
}

TEST(Cli, RejectsNonFlagArgument) {
  EXPECT_THROW(make({"positional"}, {"samples"}), ParseError);
}

TEST(Cli, RejectsNonNumericValue) {
  const Cli cli = make({"--samples=abc"}, {"samples"});
  EXPECT_THROW(static_cast<void>(cli.get("samples", 0)), ParseError);
}

TEST(Cli, CountRejectsNegativeAndFractionalValues) {
  // `ppdtool atpg --paths=-1` used to wrap through size_t to SIZE_MAX.
  const Cli cli = make({"--paths=-1", "--k=2.5", "--n=7"}, {"paths", "k", "n"});
  EXPECT_THROW(static_cast<void>(cli.count("paths", 32)), ParseError);
  EXPECT_THROW(static_cast<void>(cli.count("k", 5)), ParseError);
  EXPECT_EQ(cli.count("n", 0), 7u);
  EXPECT_EQ(cli.count("absent", 32), 32u);
  EXPECT_THROW(static_cast<void>(parse_count("k", "1e300")), ParseError);
}

TEST(Cli, FiniteRejectsNanAndInf) {
  // `ppdtool atpg --slack=nan` used to select 0 sites and exit 0.
  const Cli cli = make({"--a=nan", "--b=inf", "--c=0.2"}, {"a", "b", "c"});
  EXPECT_THROW(static_cast<void>(cli.finite("a", 0.0)), ParseError);
  EXPECT_THROW(static_cast<void>(cli.finite("b", 0.0)), ParseError);
  EXPECT_DOUBLE_EQ(cli.finite("c", 0.0), 0.2);
}

}  // namespace
}  // namespace ppd::util
