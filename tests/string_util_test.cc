#include "base/string_util.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include <cmath>

namespace maybms {
namespace {

TEST(StringUtilTest, AsciiCaseConversion) {
  EXPECT_EQ(AsciiToLower("SeLeCt * FROM R"), "select * from r");
  EXPECT_EQ(AsciiToUpper("repair by key"), "REPAIR BY KEY");
  EXPECT_EQ(AsciiToLower(""), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(AsciiEqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(AsciiEqualsIgnoreCase("SSN'", "ssn'"));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("selec", "select"));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("a", "b"));
  EXPECT_TRUE(AsciiEqualsIgnoreCase("", ""));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t\nhi"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(LikeMatchTest, ExactMatch) {
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_FALSE(LikeMatch("abc", "abd"));
  EXPECT_FALSE(LikeMatch("abc", "ab"));
}

TEST(LikeMatchTest, PercentWildcard) {
  EXPECT_TRUE(LikeMatch("whale", "%"));
  EXPECT_TRUE(LikeMatch("whale", "wh%"));
  EXPECT_TRUE(LikeMatch("whale", "%ale"));
  EXPECT_TRUE(LikeMatch("whale", "%ha%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("whale", "%x%"));
  EXPECT_TRUE(LikeMatch("whale", "%%le"));
}

TEST(LikeMatchTest, UnderscoreWildcard) {
  EXPECT_TRUE(LikeMatch("cat", "c_t"));
  EXPECT_FALSE(LikeMatch("caat", "c_t"));
  EXPECT_TRUE(LikeMatch("cat", "___"));
  EXPECT_FALSE(LikeMatch("cat", "____"));
  EXPECT_TRUE(LikeMatch("a1b2", "a_b_"));
}

TEST(FormatDoubleTest, IntegralValuesWithoutDecimals) {
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(-42.0), "-42");
}

TEST(FormatDoubleTest, FractionsKeepPrecision) {
  EXPECT_EQ(FormatDouble(0.25), "0.25");
  EXPECT_EQ(FormatDouble(1.0 / 3), "0.333333333333");
}

TEST(FormatDoubleTest, SpecialValues) {
  EXPECT_EQ(FormatDouble(std::nan("")), "NaN");
  EXPECT_EQ(FormatDouble(1.0 / 0.0), "Inf");
  EXPECT_EQ(FormatDouble(-1.0 / 0.0), "-Inf");
}

// ---------------------------------------------------------------------------
// Edge cases: empty inputs, non-ASCII (UTF-8) bytes, embedded NUL. The
// utilities are byte-oriented and ASCII-only by contract; these tests pin
// down that non-ASCII bytes pass through untouched rather than being
// locale-mangled.
// ---------------------------------------------------------------------------

TEST(StringUtilTest, CaseConversionLeavesUtf8BytesIntact) {
  const std::string utf8 = "Größe WAL 🐳 Ωmega";
  EXPECT_EQ(AsciiToLower(utf8), "größe wal 🐳 Ωmega");
  EXPECT_EQ(AsciiToUpper(utf8), "GRößE WAL 🐳 ΩMEGA");
}

TEST(StringUtilTest, CaseConversionPreservesEmbeddedNul) {
  std::string s = "AB";
  s.push_back('\0');
  s += "cd";
  std::string lower = AsciiToLower(s);
  ASSERT_EQ(lower.size(), s.size());
  EXPECT_EQ(lower[0], 'a');
  EXPECT_EQ(lower[2], '\0');
  EXPECT_EQ(lower[3], 'c');
}

TEST(StringUtilTest, EqualsIgnoreCaseIsByteExactForNonAscii) {
  // ASCII-only case folding: non-ASCII bytes must match exactly.
  EXPECT_TRUE(AsciiEqualsIgnoreCase("Größe", "gRÖSSE") == false);
  EXPECT_TRUE(AsciiEqualsIgnoreCase("Größe", "größe"));
  std::string with_nul = "a";
  with_nul.push_back('\0');
  std::string other = "a";
  other.push_back('\0');
  EXPECT_TRUE(AsciiEqualsIgnoreCase(with_nul, other));
  EXPECT_FALSE(AsciiEqualsIgnoreCase(with_nul, "a"));  // length differs
}

TEST(StringUtilTest, SplitHandlesEmptyAndNulBytes) {
  EXPECT_EQ(Split("", 'x'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  std::string s = "a";
  s.push_back('\0');
  s += "b";
  std::vector<std::string> parts = Split(s, '\0');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"", "a", "", "b", ""};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtilTest, StripWhitespaceOnlyStripsAsciiWhitespace) {
  // U+00A0 (NBSP, bytes 0xC2 0xA0) is not ASCII whitespace; it stays.
  const std::string nbsp = "\xC2\xA0hi\xC2\xA0";
  EXPECT_EQ(StripWhitespace(nbsp), nbsp);
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t\r\n\v\f"), "");
}

TEST(LikeMatchTest, EmptyStringAndPattern) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_FALSE(LikeMatch("a", ""));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("", "%%"));
}

TEST(LikeMatchTest, MatchingIsByteOriented) {
  // 'é' is two bytes in UTF-8, so it matches two underscores, not one —
  // the documented byte-level semantics of our LIKE.
  EXPECT_FALSE(LikeMatch("é", "_"));
  EXPECT_TRUE(LikeMatch("é", "__"));
  EXPECT_TRUE(LikeMatch("école", "é%"));
  EXPECT_TRUE(LikeMatch("🐳", "%"));
}

TEST(FormatDoubleTest, NegativeZeroAndTinyValues) {
  EXPECT_EQ(FormatDouble(-0.0), "-0");
  EXPECT_EQ(FormatDouble(1e-300), "1e-300");
  EXPECT_EQ(FormatDouble(0.1 + 0.2), "0.3");  // %.12g hides the ulp noise
}

TEST(ParseDecimalTest, DigitsOnlyAndRangeChecked) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(ParseDecimal("0", kMax), 0u);
  EXPECT_EQ(ParseDecimal("0042", kMax), 42u);
  EXPECT_EQ(ParseDecimal("18446744073709551615", kMax), kMax);
  EXPECT_EQ(ParseDecimal("65535", 65535), 65535u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1k", "0x10", "abc",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(ParseDecimal(bad, kMax).has_value()) << "\"" << bad << "\"";
  }
  EXPECT_FALSE(ParseDecimal("65536", 65535).has_value());
  EXPECT_FALSE(ParseDecimal("70000", 65535).has_value());
  EXPECT_FALSE(ParseDecimal("5", 0).has_value());
  EXPECT_EQ(ParseDecimal("0", 0), 0u);
}

}  // namespace
}  // namespace maybms
