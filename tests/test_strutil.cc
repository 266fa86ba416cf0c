#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/log.hh"

#include "common/strutil.hh"

using namespace pipesim;

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim("hello"), "hello");
    EXPECT_EQ(trim("\t x \n"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(StrUtil, Split)
{
    const auto parts = split("a, b ,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(StrUtil, SplitKeepsEmptyPieces)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(StrUtil, SplitSingle)
{
    const auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(StrUtil, IEquals)
{
    EXPECT_TRUE(iequals("Add", "add"));
    EXPECT_TRUE(iequals("PBR", "pbr"));
    EXPECT_FALSE(iequals("add", "adds"));
    EXPECT_FALSE(iequals("add", "sub"));
    EXPECT_TRUE(iequals("", ""));
}

TEST(StrUtil, ToLower)
{
    EXPECT_EQ(toLower("HeLLo"), "hello");
    EXPECT_EQ(toLower("123aB"), "123ab");
}

TEST(StrUtil, ParseIntDecimal)
{
    EXPECT_EQ(parseInt("0"), 0);
    EXPECT_EQ(parseInt("42"), 42);
    EXPECT_EQ(parseInt("-42"), -42);
    EXPECT_EQ(parseInt("+7"), 7);
    EXPECT_EQ(parseInt(" 13 "), 13);
    // The full int64 range, both ends, parses exactly.
    EXPECT_EQ(parseInt("9223372036854775807"),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parseInt("-9223372036854775808"),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parseInt("0x7fffffffffffffff"),
              std::numeric_limits<std::int64_t>::max());
}

TEST(StrUtil, ParseIntHexAndBinary)
{
    EXPECT_EQ(parseInt("0x10"), 16);
    EXPECT_EQ(parseInt("0XfF"), 255);
    EXPECT_EQ(parseInt("0b101"), 5);
    EXPECT_EQ(parseInt("-0x10"), -16);
}

TEST(StrUtil, ParseIntRejectsGarbage)
{
    EXPECT_FALSE(parseInt(""));
    EXPECT_FALSE(parseInt("abc"));
    EXPECT_FALSE(parseInt("12x"));
    EXPECT_FALSE(parseInt("0x"));
    EXPECT_FALSE(parseInt("-"));
    EXPECT_FALSE(parseInt("0b2"));
    // Out-of-range literals are rejected, never wrapped.
    EXPECT_FALSE(parseInt("9223372036854775808"));
    EXPECT_FALSE(parseInt("-9223372036854775809"));
    EXPECT_FALSE(parseInt("99999999999999999999"));
    EXPECT_FALSE(parseInt("0x8000000000000000"));
    EXPECT_FALSE(parseInt("0x10000000000000000"));
}

TEST(StrUtil, Format)
{
    EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(format("%04x", 0xab), "00ab");
    EXPECT_EQ(format("plain"), "plain");
}
