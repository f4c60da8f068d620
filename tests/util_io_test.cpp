#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace circles::util {
namespace {

TEST(TableTest, RendersHeaderRuleAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string text = t.to_string();
  std::istringstream is(text);
  std::string line;
  std::getline(is, line);
  EXPECT_NE(line.find("name"), std::string::npos);
  EXPECT_NE(line.find("value"), std::string::npos);
  std::getline(is, line);
  EXPECT_EQ(line.find_first_not_of('-'), std::string::npos);
  std::getline(is, line);
  EXPECT_NE(line.find("alpha"), std::string::npos);
}

TEST(TableTest, RightAlignsToWidestCell) {
  Table t({"x"});
  t.add_row({"1"});
  t.add_row({"100"});
  std::istringstream is(t.to_string());
  std::string header, rule, row1, row2;
  std::getline(is, header);
  std::getline(is, rule);
  std::getline(is, row1);
  std::getline(is, row2);
  EXPECT_EQ(row1, "  1");
  EXPECT_EQ(row2, "100");
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(std::int64_t{-7}), "-7");
  EXPECT_EQ(Table::percent(0.1234, 1), "12.3%");
}

TEST(TableDeathTest, RowWidthMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "width");
}

class CliFixture {
 public:
  explicit CliFixture(std::vector<std::string> args) {
    storage_.push_back("prog");
    for (auto& a : args) storage_.push_back(std::move(a));
    for (auto& s : storage_) argv_.push_back(s.data());
  }
  Cli make() { return Cli(static_cast<int>(argv_.size()), argv_.data()); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> argv_;
};

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  CliFixture fixture({"--n=32", "--k", "5"});
  Cli cli = fixture.make();
  EXPECT_EQ(cli.int_flag("n", 0, "agents"), 32);
  EXPECT_EQ(cli.int_flag("k", 0, "colors"), 5);
  cli.finish();
}

TEST(CliTest, DefaultsWhenAbsent) {
  CliFixture fixture({});
  Cli cli = fixture.make();
  EXPECT_EQ(cli.int_flag("n", 17, "agents"), 17);
  EXPECT_DOUBLE_EQ(cli.double_flag("p", 0.25, "prob"), 0.25);
  EXPECT_EQ(cli.string_flag("mode", "fast", "mode"), "fast");
  EXPECT_TRUE(cli.bool_flag("verbose", true, "verbosity"));
  cli.finish();
}

TEST(CliTest, BooleanFlagWithoutValue) {
  CliFixture fixture({"--verbose"});
  Cli cli = fixture.make();
  EXPECT_TRUE(cli.bool_flag("verbose", false, "verbosity"));
  cli.finish();
}

TEST(CliTest, DoubleAndStringValues) {
  CliFixture fixture({"--ratio=0.5", "--name=widget"});
  Cli cli = fixture.make();
  EXPECT_DOUBLE_EQ(cli.double_flag("ratio", 1.0, "r"), 0.5);
  EXPECT_EQ(cli.string_flag("name", "", "n"), "widget");
  cli.finish();
}

}  // namespace
}  // namespace circles::util
