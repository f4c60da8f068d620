// util::Cli flag parsing: double_list_flag (probe grids,
// --sample-points=0.1,0.5,0.9) and the numeric flags' whole-value rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/cli.hpp"

namespace circles::util {
namespace {

/// Builds a Cli from literal arguments (argv[0] is supplied).
Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()),
             const_cast<char**>(args.data()));
}

TEST(CliDoubleListFlagTest, ParsesCommaSeparatedDoubles) {
  Cli cli = make_cli({"--sample-points=0.1,0.5,0.9"});
  const auto values =
      cli.double_list_flag("sample-points", "", "sample fractions");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 0.1);
  EXPECT_DOUBLE_EQ(values[1], 0.5);
  EXPECT_DOUBLE_EQ(values[2], 0.9);
  cli.finish();
}

TEST(CliDoubleListFlagTest, ParsesScientificAndIntegerForms) {
  Cli cli = make_cli({"--points=1e-3,2,0.25"});
  const auto values = cli.double_list_flag("points", "", "help");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 1e-3);
  EXPECT_DOUBLE_EQ(values[1], 2.0);
  EXPECT_DOUBLE_EQ(values[2], 0.25);
}

TEST(CliDoubleListFlagTest, UsesDefaultWhenUnset) {
  Cli cli = make_cli({});
  const auto values = cli.double_list_flag("points", "0.25,0.75", "help");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0], 0.25);
  EXPECT_DOUBLE_EQ(values[1], 0.75);
}

TEST(CliDoubleListFlagTest, EmptyDefaultMeansOptionalFlag) {
  // Unlike int_list_flag, an empty default is legal: the flag is simply
  // unset and callers skip the feature (no probe-grid override).
  Cli cli = make_cli({});
  EXPECT_TRUE(cli.double_list_flag("points", "", "help").empty());
}

TEST(CliDoubleListFlagTest, SingleValue) {
  Cli cli = make_cli({"--points=0.5"});
  const auto values = cli.double_list_flag("points", "", "help");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values[0], 0.5);
}

TEST(CliDoubleListFlagDeathTest, MalformedValueExits) {
  EXPECT_EXIT(
      {
        Cli cli = make_cli({"--points=0.1,banana"});
        (void)cli.double_list_flag("points", "", "help");
      },
      testing::ExitedWithCode(2), "expects comma-separated numbers");
}

TEST(CliDoubleListFlagDeathTest, TrailingGarbageExits) {
  EXPECT_EXIT(
      {
        Cli cli = make_cli({"--points=0.5x"});
        (void)cli.double_list_flag("points", "", "help");
      },
      testing::ExitedWithCode(2), "expects comma-separated numbers");
}

TEST(CliNumericFlagTest, WholeValuesParse) {
  Cli cli = make_cli({"--trials=5", "--n=10,-3", "--rate=2.5e-1"});
  EXPECT_EQ(cli.int_flag("trials", 1, "help"), 5);
  EXPECT_EQ(cli.int_list_flag("n", "1", "help"),
            (std::vector<std::int64_t>{10, -3}));
  EXPECT_DOUBLE_EQ(cli.double_flag("rate", 0.0, "help"), 0.25);
  cli.finish();
}

TEST(CliNumericFlagDeathTest, IntFlagRejectsTrailingCharacters) {
  EXPECT_EXIT(
      {
        Cli cli = make_cli({"--trials=5x"});
        (void)cli.int_flag("trials", 1, "help");
      },
      testing::ExitedWithCode(2), "flag --trials expects an integer, got '5x'");
}

TEST(CliNumericFlagDeathTest, IntFlagRejectsExponentNotation) {
  // "1e11" used to parse as 1 (the prefix), silently starving every trial.
  EXPECT_EXIT(
      {
        Cli cli = make_cli({"--budget=1e11"});
        (void)cli.int_flag("budget", 0, "help");
      },
      testing::ExitedWithCode(2),
      "flag --budget expects an integer, got '1e11'");
}

TEST(CliNumericFlagDeathTest, IntListFlagRejectsTrailingCharacters) {
  EXPECT_EXIT(
      {
        Cli cli = make_cli({"--n=100,2e3"});
        (void)cli.int_list_flag("n", "1", "help");
      },
      testing::ExitedWithCode(2),
      "flag --n expects comma-separated integers, got '100,2e3'");
}

TEST(CliNumericFlagDeathTest, DoubleFlagRejectsTrailingCharacters) {
  EXPECT_EXIT(
      {
        Cli cli = make_cli({"--rate=0.5s"});
        (void)cli.double_flag("rate", 0.0, "help");
      },
      testing::ExitedWithCode(2), "flag --rate expects a number, got '0.5s'");
}

}  // namespace
}  // namespace circles::util
