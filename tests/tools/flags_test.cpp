#include "flags.hpp"

#include <gtest/gtest.h>

namespace alpha::tools {
namespace {

Flags make() {
  Flags f{"test", "test flags"};
  f.define("count", "5", "a number");
  f.define("rate", "0.5", "a real");
  f.define("name", "hello", "a string");
  f.define("verbose", "false", "a switch");
  return f;
}

TEST(FlagsTest, DefaultsApply) {
  Flags f = make();
  char prog[] = "test";
  char* argv[] = {prog};
  f.parse(1, argv);
  EXPECT_EQ(f.num("count"), 5);
  EXPECT_DOUBLE_EQ(f.real("rate"), 0.5);
  EXPECT_EQ(f.str("name"), "hello");
  EXPECT_FALSE(f.flag("verbose"));
}

TEST(FlagsTest, SpaceSeparatedValues) {
  Flags f = make();
  char prog[] = "test", a1[] = "--count", a2[] = "42", a3[] = "--name",
       a4[] = "world";
  char* argv[] = {prog, a1, a2, a3, a4};
  f.parse(5, argv);
  EXPECT_EQ(f.num("count"), 42);
  EXPECT_EQ(f.str("name"), "world");
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = make();
  char prog[] = "test", a1[] = "--rate=0.25", a2[] = "--count=7";
  char* argv[] = {prog, a1, a2};
  f.parse(3, argv);
  EXPECT_DOUBLE_EQ(f.real("rate"), 0.25);
  EXPECT_EQ(f.num("count"), 7);
}

TEST(FlagsTest, BooleanSwitch) {
  Flags f = make();
  char prog[] = "test", a1[] = "--verbose";
  char* argv[] = {prog, a1};
  f.parse(2, argv);
  EXPECT_TRUE(f.flag("verbose"));
}

TEST(FlagsTest, BooleanDoesNotSwallowNextFlag) {
  Flags f = make();
  char prog[] = "test", a1[] = "--verbose", a2[] = "--count", a3[] = "9";
  char* argv[] = {prog, a1, a2, a3};
  f.parse(4, argv);
  EXPECT_TRUE(f.flag("verbose"));
  EXPECT_EQ(f.num("count"), 9);
}

// A value flag given last is a usage error, not the string "true" (which
// would, e.g., send --flight-dir output to a directory named `true`).
TEST(FlagsTest, ValueFlagWithoutValueIsUsageError) {
  char prog[] = "test", a1[] = "--verbose", a2[] = "--name";
  char* argv[] = {prog, a1, a2};
  EXPECT_EXIT(make().parse(3, argv), ::testing::ExitedWithCode(2),
              "--name needs a value");
}

}  // namespace
}  // namespace alpha::tools
