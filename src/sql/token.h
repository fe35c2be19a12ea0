#ifndef MAYBMS_SQL_TOKEN_H_
#define MAYBMS_SQL_TOKEN_H_

#include <cstdint>
#include <string>

namespace maybms::sql {

enum class TokenType {
  kEnd,
  kIdentifier,     // unquoted identifier or keyword (parser decides)
  kStringLiteral,  // 'text' with '' escaping
  kIntegerLiteral,
  kRealLiteral,
  // Operators / punctuation.
  kComma,
  kDot,
  kSemicolon,
  kLeftParen,
  kRightParen,
  kStar,
  kPlus,
  kMinus,
  kSlash,
  kPercent,
  kEquals,
  kNotEquals,  // <> or !=
  kLess,
  kLessEquals,
  kGreater,
  kGreaterEquals,
};

/// One lexical token with its source offset (for error messages).
struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;        // identifier/keyword text or literal spelling
  uint64_t int_value = 0;  // for kIntegerLiteral: at most 2^63 (the
                           // magnitude of INT64_MIN, valid after '-')
  double real_value = 0;   // for kRealLiteral
  size_t offset = 0;       // byte offset in the input
};

}  // namespace maybms::sql

#endif  // MAYBMS_SQL_TOKEN_H_
