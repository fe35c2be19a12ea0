#include "sql/lexer.h"

#include <gtest/gtest.h>

namespace maybms::sql {
namespace {

std::vector<Token> Lex(const std::string& input) {
  Lexer lexer(input);
  auto tokens = lexer.Tokenize();
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  return tokens.ok() ? *tokens : std::vector<Token>{};
}

TEST(LexerTest, EmptyInput) {
  auto tokens = Lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto tokens = Lex("select Foo _bar x1");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].text, "Foo");
  EXPECT_EQ(tokens[2].text, "_bar");
  EXPECT_EQ(tokens[3].text, "x1");
}

TEST(LexerTest, PrimedIdentifiers) {
  // The paper's SSN', TEL', Valid' style names.
  auto tokens = Lex("SSN' = TEL'");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "SSN'");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].type, TokenType::kEquals);
  EXPECT_EQ(tokens[2].text, "TEL'");
}

TEST(LexerTest, IntegerAndRealLiterals) {
  auto tokens = Lex("42 3.14 0.5 1e3 2.5e-2");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].type, TokenType::kIntegerLiteral);
  EXPECT_EQ(tokens[0].int_value, 42u);
  EXPECT_EQ(tokens[1].type, TokenType::kRealLiteral);
  EXPECT_DOUBLE_EQ(tokens[1].real_value, 3.14);
  EXPECT_DOUBLE_EQ(tokens[2].real_value, 0.5);
  EXPECT_DOUBLE_EQ(tokens[3].real_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[4].real_value, 0.025);
}

TEST(LexerTest, IntegerLiteralsMustFitIn64Bits) {
  // Up to 2^63: the magnitude of INT64_MIN, which the parser accepts only
  // after a minus sign.
  auto tokens = Lex("9223372036854775807 9223372036854775808");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].int_value, 9223372036854775807u);
  EXPECT_EQ(tokens[1].int_value, 9223372036854775808u);
  for (const char* text : {"9223372036854775809", "99999999999999999999"}) {
    Lexer lexer(text);
    auto out = lexer.Tokenize();
    ASSERT_FALSE(out.ok()) << text;
    EXPECT_EQ(out.status().code(), StatusCode::kParseError);
  }
}

TEST(LexerTest, NumberFollowedByIdentifierWithE) {
  // "1e" is the integer 1 followed by identifier "e", not an exponent.
  auto tokens = Lex("1e");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kIntegerLiteral);
  EXPECT_EQ(tokens[1].text, "e");
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = Lex("'hello' 'it''s'");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].text, "it's");
}

TEST(LexerTest, UnterminatedStringIsError) {
  Lexer lexer("'oops");
  EXPECT_FALSE(lexer.Tokenize().ok());
}

TEST(LexerTest, QuotedIdentifiers) {
  auto tokens = Lex("\"weird name\"");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "weird name");
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto tokens = Lex(", . ; ( ) * + - / % = <> != < <= > >=");
  std::vector<TokenType> expected = {
      TokenType::kComma,       TokenType::kDot,
      TokenType::kSemicolon,   TokenType::kLeftParen,
      TokenType::kRightParen,  TokenType::kStar,
      TokenType::kPlus,        TokenType::kMinus,
      TokenType::kSlash,       TokenType::kPercent,
      TokenType::kEquals,      TokenType::kNotEquals,
      TokenType::kNotEquals,   TokenType::kLess,
      TokenType::kLessEquals,  TokenType::kGreater,
      TokenType::kGreaterEquals, TokenType::kEnd};
  ASSERT_EQ(tokens.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].type, expected[i]) << "at index " << i;
  }
}

TEST(LexerTest, LineAndBlockComments) {
  auto tokens = Lex("select -- a comment\n1 /* block\ncomment */ 2");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].int_value, 1u);
  EXPECT_EQ(tokens[2].int_value, 2u);
}

TEST(LexerTest, OffsetsTrackSourcePosition) {
  auto tokens = Lex("ab cd");
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 3u);
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  Lexer lexer("select @");
  auto result = lexer.Tokenize();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace maybms::sql
