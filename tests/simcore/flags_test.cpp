#include "simcore/flags.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace tls::sim {
namespace {

constexpr FlagSpec kTable[] = {
    {"count", "N", "how many"},
    {"rate", "X", "how fast"},
    {"mode", "M", "a|b"},
    {"path", "PATH", "where"},
    {"verbose", nullptr, "a switch"},
};

enum class Mode { kA, kB };

struct Parsed {
  bool ok = false;
  Flags flags;
  std::string error;
};

Parsed parse(const std::vector<std::string>& args) {
  Parsed p;
  p.ok = p.flags.parse(args, kTable, &p.error);
  return p;
}

TEST(Flags, ValueFlagTakesEqualsOrNextToken) {
  Parsed p = parse({"--count=3", "--path", "out.csv", "input"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.flags.get("count"), "3");
  EXPECT_EQ(p.flags.get("path"), "out.csv");
  EXPECT_EQ(p.flags.positional, std::vector<std::string>{"input"});
  // "=" splits at the first '=' only.
  p = parse({"--path=a=b"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.flags.get("path"), "a=b");
}

TEST(Flags, SwitchNeverTakesAValue) {
  Parsed p = parse({"--verbose", "false"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.flags.get("verbose"), "true");
  EXPECT_EQ(p.flags.positional, std::vector<std::string>{"false"});

  p = parse({"--verbose=false"});
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.error, "--verbose is a switch and takes no value");
}

TEST(Flags, ValueFlagWithoutValueRejected) {
  Parsed at_end = parse({"input", "--path"});
  EXPECT_FALSE(at_end.ok);
  EXPECT_EQ(at_end.error, "--path requires a value");

  Parsed before_flag = parse({"--path", "--verbose"});
  EXPECT_FALSE(before_flag.ok);
  EXPECT_EQ(before_flag.error, "--path requires a value");
}

TEST(Flags, NegativeNumberIsAValue) {
  Parsed p = parse({"--count", "-1"});
  ASSERT_TRUE(p.ok) << p.error;
  long count = 0;
  std::string error;
  ASSERT_TRUE(p.flags.integer("count", 5, -1, 10, &count, &error)) << error;
  EXPECT_EQ(count, -1);
}

TEST(Flags, LastOneWins) {
  Parsed p = parse({"--count", "1", "--count=2", "--count", "3"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.flags.get("count"), "3");
}

TEST(Flags, BareDoubleDashRejected) {
  Parsed p = parse({"input", "--"});
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("empty flag name"), std::string::npos) << p.error;
  EXPECT_FALSE(parse({"--=3"}).ok);
}

TEST(Flags, UnknownFlagListsEveryValidFlag) {
  Parsed p = parse({"--count", "1", "--cuont", "2"});
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.error,
            "unknown flag --cuont (valid flags: --count, --rate, --mode, "
            "--path, --verbose)");
}

TEST(Flags, AbsentFlagReadsFallback) {
  Parsed p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_FALSE(p.flags.has("count"));
  EXPECT_EQ(p.flags.get("count", "7"), "7");
  long count = 0;
  double rate = 0;
  Mode mode = Mode::kA;
  std::string error;
  EXPECT_TRUE(p.flags.integer("count", 7, 1, 10, &count, &error));
  EXPECT_EQ(count, 7);
  EXPECT_TRUE(p.flags.real("rate", 2.5, 1.0, &rate, &error));
  EXPECT_EQ(rate, 2.5);
  EXPECT_TRUE(p.flags.choice("mode", Mode::kB,
                             {{"a", Mode::kA}, {"b", Mode::kB}}, &mode,
                             &error));
  EXPECT_EQ(mode, Mode::kB);
}

TEST(Flags, IntegerBoundsAndMessage) {
  std::string error;
  long out = 0;
  EXPECT_TRUE(parse({"--count", "10"}).flags.integer("count", 1, 1, 10, &out,
                                                     &error));
  EXPECT_EQ(out, 10);
  for (const char* bad : {"0", "11", "2x", "abc", "1.5", " "}) {
    error.clear();
    EXPECT_FALSE(parse({"--count", bad}).flags.integer("count", 1, 1, 10,
                                                       &out, &error))
        << bad;
    EXPECT_EQ(error, "bad value for --count: '" + std::string(bad) + "'");
  }
}

TEST(Flags, RealLowerBoundAndMessage) {
  std::string error;
  double out = 0;
  EXPECT_TRUE(parse({"--rate=0.5"}).flags.real("rate", 1, 0.5, &out, &error));
  EXPECT_EQ(out, 0.5);
  constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  EXPECT_FALSE(parse({"--rate=0"}).flags.real("rate", 1, kPositive, &out,
                                              &error));
  EXPECT_EQ(error, "bad value for --rate: '0'");
  EXPECT_FALSE(parse({"--rate=fast"}).flags.real("rate", 1, 0, &out, &error));
  EXPECT_EQ(error, "bad value for --rate: 'fast'");
}

TEST(Flags, ChoiceMatchesTextAndListsChoices) {
  std::string error;
  Mode mode = Mode::kB;
  EXPECT_TRUE(parse({"--mode", "a"}).flags.choice(
      "mode", Mode::kB, {{"a", Mode::kA}, {"b", Mode::kB}}, &mode, &error));
  EXPECT_EQ(mode, Mode::kA);
  EXPECT_FALSE(parse({"--mode", "c"}).flags.choice(
      "mode", Mode::kB, {{"a", Mode::kA}, {"b", Mode::kB}}, &mode, &error));
  EXPECT_EQ(error, "bad --mode 'c' (a|b)");
}

TEST(Flags, HelpAlignsRowsAndIndentsContinuationLines) {
  constexpr FlagSpec kRows[] = {
      {"count", "N", "how many\nat most ten"},
      {"verbose", nullptr, "a switch"},
  };
  EXPECT_EQ(flag_help(kRows),
            "  --count N                   how many\n"
            "                              at most ten\n"
            "  --verbose                   a switch\n");
}

}  // namespace
}  // namespace tls::sim
