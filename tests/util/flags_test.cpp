#include "util/flags.h"

#include <gtest/gtest.h>

namespace srm::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags f = parse({"--seed=99", "--trials=5"});
  EXPECT_EQ(f.get_seed(1), 99u);
  EXPECT_EQ(f.get_int("trials", 0), 5);
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags f = parse({"--name", "value"});
  EXPECT_EQ(f.get_string("name", ""), "value");
}

TEST(FlagsTest, BareBoolean) {
  const Flags f = parse({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("quiet", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags f = parse({});
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 2.5), 2.5);
  EXPECT_EQ(f.get_string("s", "d"), "d");
  EXPECT_EQ(f.get_seed(7), 7u);
}

TEST(FlagsTest, DoubleParsing) {
  const Flags f = parse({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 0.25);
}

TEST(FlagsTest, BoolSpellings) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=false"}).get_bool("a", true));
}

TEST(FlagsTest, FalseSpellings) {
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a", "false"}).get_bool("a", true));
  EXPECT_TRUE(parse({"--a", "--b"}).get_bool("a", false));  // bare flag
}

TEST(FlagsTest, UnknownBoolSpellingThrowsFlagErrorNamingTheFlag) {
  const Flags f = parse({"--fec=ture", "--x=", "--y=TRUE", "--z=2"});
  try {
    f.get_bool("fec", false);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("--fec"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ture"), std::string::npos);
  }
  EXPECT_THROW(f.get_bool("x", false), FlagError);
  EXPECT_THROW(f.get_bool("y", false), FlagError);
  EXPECT_THROW(f.get_bool("z", false), FlagError);
  EXPECT_FALSE(f.get_bool("absent", false));  // absent still defaults
}

TEST(FlagsTest, PositionalArguments) {
  const Flags f = parse({"pos1", "--k=v", "pos2"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
}

TEST(FlagsTest, HasDetectsPresence) {
  const Flags f = parse({"--x=1"});
  EXPECT_TRUE(f.has("x"));
  EXPECT_FALSE(f.has("y"));
}

TEST(FlagsTest, NonNumericValuesThrowFlagErrorNamingTheFlag) {
  const Flags f = parse({"--rounds=abc", "--loss=x", "--seed=seven"});
  try {
    f.get_int("rounds", 0);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("--rounds"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
  EXPECT_THROW(f.get_double("loss", 0.0), FlagError);
  EXPECT_THROW(f.get_seed(1), FlagError);
}

TEST(FlagsTest, TrailingGarbageIsRejected) {
  const Flags f = parse({"--rounds=5x", "--rate=0.5s", "--seed=9 ", "--n="});
  EXPECT_THROW(f.get_int("rounds", 0), FlagError);
  EXPECT_THROW(f.get_double("rate", 0.0), FlagError);
  EXPECT_THROW(f.get_seed(1), FlagError);
  EXPECT_THROW(f.get_int("n", 0), FlagError);
}

TEST(FlagsTest, OutOfRangeAndNegativeSeedAreRejected) {
  EXPECT_THROW(parse({"--n=99999999999999999999"}).get_int("n", 0), FlagError);
  EXPECT_THROW(parse({"--seed=-1"}).get_seed(1), FlagError);
  EXPECT_EQ(parse({"--n=-3"}).get_int("n", 0), -3);
  EXPECT_DOUBLE_EQ(parse({"--x=1e-3"}).get_double("x", 0.0), 1e-3);
}

}  // namespace
}  // namespace srm::util
