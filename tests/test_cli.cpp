// The tools' command-line parser: value options, flags, defaults, and the
// fail-fast behaviour on unknown options (death tests).

#include "cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <utility>

namespace gridsub::tools {
namespace {

Cli make_cli() {
  return Cli("tool", "test tool",
             {{"--in", "input"}, {"--count", "n"}, {"--verbose", "flag"}},
             {"--verbose"});
}

TEST(Cli, ParsesValueOptions) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool"), const_cast<char*>("--in"),
                  const_cast<char*>("file.csv")};
  cli.parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(cli.get("--in").has_value());
  EXPECT_EQ(*cli.get("--in"), "file.csv");
  EXPECT_FALSE(cli.get("--count").has_value());
}

TEST(Cli, ParsesFlagsWithoutConsumingValues) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool"), const_cast<char*>("--verbose"),
                  const_cast<char*>("--in"), const_cast<char*>("x")};
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(cli.flag("--verbose"));
  EXPECT_EQ(*cli.get("--in"), "x");
}

TEST(Cli, DefaultsApply) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool")};
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_or("--in", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(cli.number_or("--count", 7.5), 7.5);
  EXPECT_FALSE(cli.flag("--verbose"));
}

TEST(Cli, ParsesNumbers) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool"), const_cast<char*>("--count"),
                  const_cast<char*>("42.5")};
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(cli.number_or("--count", 0.0), 42.5);
}

TEST(CliDeathTest, UnknownOptionExits) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool"), const_cast<char*>("--bogus"),
                  const_cast<char*>("x")};
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2), "unknown option");
}

TEST(CliDeathTest, MissingValueExits) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool"), const_cast<char*>("--in")};
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2), "needs a value");
}

TEST(CliDeathTest, BadNumberExits) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool"), const_cast<char*>("--count"),
                  const_cast<char*>("not-a-number")};
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EXIT((void)cli.number_or("--count", 0.0),
              ::testing::ExitedWithCode(2), "expects a number");
}

TEST(CliDeathTest, TrailingGarbageAfterNumberExits) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool"), const_cast<char*>("--count"),
                  const_cast<char*>("12abc")};
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EXIT((void)cli.number_or("--count", 0.0),
              ::testing::ExitedWithCode(2), "expects a number");
}

TEST(CliDeathTest, NonFiniteNumberExits) {
  for (const char* value : {"nan", "inf", "-inf", "1e999"}) {
    auto cli = make_cli();
    std::array argv{const_cast<char*>("tool"), const_cast<char*>("--count"),
                    const_cast<char*>(value)};
    cli.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EXIT((void)cli.number_or("--count", 0.0),
                ::testing::ExitedWithCode(2), "expects a number")
        << value;
  }
}

TEST(Cli, CountReadsWholeNumbersInRange) {
  for (const auto& [value, want] :
       {std::pair{"0", 0}, std::pair{"7", 7}, std::pair{"100", 100},
        std::pair{"1e2", 100}}) {
    auto cli = make_cli();
    std::array argv{const_cast<char*>("tool"), const_cast<char*>("--count"),
                    const_cast<char*>(value)};
    cli.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(cli.count_or("--count", -1, 0, 100), want) << value;
  }
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool")};
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.count_or("--count", -1, 0, 100), -1);  // absent: fallback
}

TEST(CliDeathTest, CountRejectsWhatNoCastMayTake) {
  // Each is rejected before any cast: a negative count, a fraction, a value
  // past every integer type here, and a NaN.
  for (const char* value : {"-5", "2.5", "1e30", "nan", "101"}) {
    auto cli = make_cli();
    std::array argv{const_cast<char*>("tool"), const_cast<char*>("--count"),
                    const_cast<char*>(value)};
    cli.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EXIT((void)cli.count_or("--count", 1, 0, 100),
                ::testing::ExitedWithCode(2), "option '--count' expects")
        << value;
  }
}

TEST(CliDeathTest, HelpExitsZero) {
  auto cli = make_cli();
  std::array argv{const_cast<char*>("tool"), const_cast<char*>("--help")};
  // Usage goes to stdout; the death-test matcher reads stderr, so only
  // the exit code is asserted here.
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace gridsub::tools
