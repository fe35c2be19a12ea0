#ifndef MAYBMS_SQL_PARSER_H_
#define MAYBMS_SQL_PARSER_H_

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/token.h"

namespace maybms::sql {

/// Recursive-descent parser for the I-SQL dialect.
///
/// Grammar highlights (keywords are case-insensitive):
///
///   select  := SELECT [DISTINCT] [POSSIBLE|CERTAIN|CONF] items
///              [FROM table_ref (',' table_ref)*]
///              [WHERE expr] [GROUP BY exprs] [HAVING expr]
///              [ORDER BY items] [LIMIT n]
///              { REPAIR BY KEY cols [WEIGHT col]
///              | CHOICE OF cols [WEIGHT col]
///              | ASSERT expr
///              | GROUP WORLDS BY '(' select ')' }*
///              [UNION [ALL] select]
///
/// plus CREATE TABLE (schema or AS select), CREATE VIEW, DROP TABLE/VIEW,
/// INSERT, UPDATE, DELETE. See the paper's §2 for the I-SQL operations.
///
/// The parser pulls tokens from the lexer as it goes and holds at most
/// three (it looks at most two ahead), so a long INSERT costs no token
/// array. A lexical error anywhere in the input is reported in place of
/// any parse error: a failed parse lexes the rest of the input first.
class Parser {
 public:
  /// Parses a single statement (a trailing ';' is allowed).
  static Result<StatementPtr> ParseStatement(const std::string& text);

  /// Parses a ';'-separated script.
  static Result<std::vector<StatementPtr>> ParseScript(const std::string& text);

 private:
  explicit Parser(const std::string& text) : lexer_(text) {}

  // Token helpers. Peek looks at most kLookahead - 1 tokens ahead; past a
  // lexical error every token is kEnd.
  const Token& Peek(size_t ahead = 0) const {
    return ahead < buffered_ ? lookahead_[(head_ + ahead) % kLookahead]
                             : Fill(ahead);
  }
  /// Pulls tokens until `ahead` is buffered, and returns it.
  const Token& Fill(size_t ahead) const;
  Token Advance();
  /// Lexes the rest of the input; the first lexical error, or OK.
  Status LexicalError();
  bool CheckKeyword(std::string_view kw, size_t ahead = 0) const;
  bool MatchKeyword(std::string_view kw);
  Status ExpectKeyword(std::string_view kw);
  bool Match(TokenType type);
  Status Expect(TokenType type, std::string_view what);
  Result<std::string> ExpectIdentifier(std::string_view what);
  Status ErrorHere(const std::string& message) const;
  /// Consumes an integer literal; one above INT64_MAX is a parse error.
  Result<int64_t> IntegerLiteral();

  // Statements.
  Result<StatementPtr> ParseStatementInternal();
  Result<std::unique_ptr<SelectStatement>> ParseSelect();
  Result<std::unique_ptr<SelectStatement>> ParseSimpleSelect();
  Status ParseWorldClauses(SelectStatement* select);
  Result<StatementPtr> ParseCreate();
  Result<StatementPtr> ParseDrop();
  Result<StatementPtr> ParseInsert();
  Result<StatementPtr> ParseUpdate();
  Result<StatementPtr> ParseDelete();

  // Expressions (by decreasing precedence binding).
  Result<ExprPtr> ParseExpr();
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  Result<std::vector<std::string>> ParseColumnNameList();

  static constexpr size_t kLookahead = 3;

  // The lexer and the tokens pulled from it but not yet consumed: a ring
  // of `buffered_` tokens from `head_`. Peek fills them, so they are
  // mutable.
  mutable Lexer lexer_;
  mutable std::array<Token, kLookahead> lookahead_;
  mutable size_t head_ = 0;
  mutable size_t buffered_ = 0;
  mutable Status lexical_error_;
};

}  // namespace maybms::sql

#endif  // MAYBMS_SQL_PARSER_H_
