#ifndef MAYBMS_SQL_LEXER_H_
#define MAYBMS_SQL_LEXER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "base/result.h"
#include "sql/token.h"

namespace maybms::sql {

/// Tokenizes a SQL/I-SQL statement string.
///
/// Supports: unquoted identifiers (letters, digits, _, and a trailing '
/// as used by the paper's SSN'/TEL'/Valid' names), "quoted identifiers",
/// 'string literals' with '' escaping, integer and real literals,
/// `--` line comments and `/* */` block comments.
class Lexer {
 public:
  explicit Lexer(std::string input) : input_(std::move(input)) {}

  /// Tokenizes the whole input; the last token is kEnd.
  Result<std::vector<Token>> Tokenize();

  /// The next token; kEnd, again and again, once the input is consumed.
  Result<Token> NextToken();

 private:
  void SkipWhitespaceAndComments();
  char Peek(size_t ahead = 0) const;
  bool AtEnd() const { return pos_ >= input_.size(); }

  std::string input_;
  size_t pos_ = 0;
};

}  // namespace maybms::sql

#endif  // MAYBMS_SQL_LEXER_H_
