#ifndef MAYBMS_SQL_PARSER_H_
#define MAYBMS_SQL_PARSER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "sql/ast.h"
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
class Parser {
 public:
  /// Parses a single statement (a trailing ';' is allowed).
  static Result<StatementPtr> ParseStatement(const std::string& text);

  /// Parses a ';'-separated script.
  static Result<std::vector<StatementPtr>> ParseScript(const std::string& text);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  // Token helpers.
  const Token& Peek(size_t ahead = 0) const;
  Token Advance();
  bool CheckKeyword(const std::string& kw, size_t ahead = 0) const;
  bool MatchKeyword(const std::string& kw);
  Status ExpectKeyword(const std::string& kw);
  bool Match(TokenType type);
  Status Expect(TokenType type, const std::string& what);
  Result<std::string> ExpectIdentifier(const std::string& what);
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

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace maybms::sql

#endif  // MAYBMS_SQL_PARSER_H_
