#include "sql/parser.h"

#include <cstdint>
#include <limits>
#include <unordered_set>

#include "base/dcheck.h"
#include "base/string_util.h"

namespace maybms::sql {

namespace {

/// Words that cannot serve as implicit table/column aliases because they
/// begin a clause or operator.
bool IsReservedWord(const std::string& word) {
  static const std::unordered_set<std::string>* const kReserved =
      new std::unordered_set<std::string>{
          "select", "from",   "where",  "group",  "by",      "having",
          "order",  "limit",  "union",  "all",    "as",      "and",
          "or",     "not",    "in",     "is",     "null",    "like",
          "between", "exists", "case",  "when",   "then",    "else",
          "end",    "asc",    "desc",   "repair", "choice",  "assert",
          "worlds", "weight", "key",    "of",     "distinct", "possible",
          "certain", "conf",  "on",     "inner",  "join",    "values",
          "left",   "outer",  "intersect", "except",
          "set",    "into",   "primary", "unique", "drop",   "create",
          "table",  "view",   "insert", "update", "delete",  "if",
          "cast",   "true",   "false",
      };
  return kReserved->count(AsciiToLower(word)) > 0;
}

}  // namespace

const Token& Parser::Fill(size_t ahead) const {
  MAYBMS_DCHECK(ahead < kLookahead, "the parser looks at most two ahead");
  while (buffered_ <= ahead) {
    Token& next = lookahead_[(head_ + buffered_) % kLookahead];
    const Token* last =
        buffered_ > 0 ? &lookahead_[(head_ + buffered_ - 1) % kLookahead]
                      : nullptr;
    if (last != nullptr && last->type == TokenType::kEnd) {
      next = *last;  // kEnd repeats, and is never consumed
    } else {
      Result<Token> token = lexer_.NextToken();
      if (token.ok()) {
        next = std::move(*token);
      } else {
        lexical_error_ = token.status();
        next = Token();  // the input ends at a lexical error
      }
    }
    ++buffered_;
  }
  return lookahead_[(head_ + ahead) % kLookahead];
}

Token Parser::Advance() {
  const Token& front = Peek();
  if (front.type == TokenType::kEnd) return front;  // kEnd stays
  Token tok = std::move(lookahead_[head_]);
  head_ = (head_ + 1) % kLookahead;
  --buffered_;
  return tok;
}

Status Parser::LexicalError() {
  while (lexical_error_.ok() && Peek().type != TokenType::kEnd) Advance();
  return lexical_error_;
}

bool Parser::CheckKeyword(std::string_view kw, size_t ahead) const {
  const Token& tok = Peek(ahead);
  return tok.type == TokenType::kIdentifier &&
         AsciiEqualsIgnoreCase(tok.text, kw);
}

bool Parser::MatchKeyword(std::string_view kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectKeyword(std::string_view kw) {
  if (!MatchKeyword(kw)) {
    return ErrorHere("expected keyword " + AsciiToUpper(kw));
  }
  return Status::OK();
}

bool Parser::Match(TokenType type) {
  if (Peek().type == type) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType type, std::string_view what) {
  if (!Match(type)) return ErrorHere("expected " + std::string(what));
  return Status::OK();
}

Result<std::string> Parser::ExpectIdentifier(std::string_view what) {
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected " + std::string(what));
  }
  return Advance().text;
}

Result<int64_t> Parser::IntegerLiteral() {
  if (Peek().int_value >
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return ErrorHere("integer literal out of range");
  }
  return static_cast<int64_t>(Advance().int_value);
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& tok = Peek();
  std::string got = tok.type == TokenType::kEnd ? "end of input"
                                                : "'" + tok.text + "'";
  if (tok.text.empty() && tok.type != TokenType::kEnd) {
    got = "token at offset " + std::to_string(tok.offset);
  }
  return Status::ParseError(message + ", got " + got + " (offset " +
                            std::to_string(tok.offset) + ")");
}

Result<StatementPtr> Parser::ParseStatement(const std::string& text) {
  Parser parser(text);
  Result<StatementPtr> stmt = parser.ParseStatementInternal();
  if (stmt.ok()) {
    parser.Match(TokenType::kSemicolon);
    if (parser.Peek().type != TokenType::kEnd) {
      stmt = parser.ErrorHere("unexpected trailing input");
    }
  }
  MAYBMS_RETURN_NOT_OK(parser.LexicalError());
  return stmt;
}

Result<std::vector<StatementPtr>> Parser::ParseScript(const std::string& text) {
  Parser parser(text);
  std::vector<StatementPtr> statements;
  Status parsed = Status::OK();
  while (parsed.ok() && parser.Peek().type != TokenType::kEnd) {
    if (parser.Match(TokenType::kSemicolon)) continue;
    Result<StatementPtr> stmt = parser.ParseStatementInternal();
    if (!stmt.ok()) {
      parsed = stmt.status();
      break;
    }
    statements.push_back(std::move(*stmt));
    if (parser.Peek().type != TokenType::kEnd &&
        !parser.Match(TokenType::kSemicolon)) {
      parsed = parser.ErrorHere("expected ';' between statements");
    }
  }
  MAYBMS_RETURN_NOT_OK(parser.LexicalError());
  MAYBMS_RETURN_NOT_OK(parsed);
  return statements;
}

Result<StatementPtr> Parser::ParseStatementInternal() {
  if (CheckKeyword("select")) {
    MAYBMS_ASSIGN_OR_RETURN(auto select, ParseSelect());
    return StatementPtr(std::move(select));
  }
  if (CheckKeyword("create")) return ParseCreate();
  if (CheckKeyword("drop")) return ParseDrop();
  if (CheckKeyword("insert")) return ParseInsert();
  if (CheckKeyword("update")) return ParseUpdate();
  if (CheckKeyword("delete")) return ParseDelete();
  return ErrorHere("expected a statement");
}

Result<std::unique_ptr<SelectStatement>> Parser::ParseSelect() {
  MAYBMS_ASSIGN_OR_RETURN(auto head, ParseSimpleSelect());
  // Left-associative set-operation chain.
  SelectStatement* tail = head.get();
  while (CheckKeyword("union") || CheckKeyword("intersect") ||
         CheckKeyword("except")) {
    SetOpKind op = SetOpKind::kUnion;
    if (MatchKeyword("union")) {
      op = MatchKeyword("all") ? SetOpKind::kUnionAll : SetOpKind::kUnion;
    } else if (MatchKeyword("intersect")) {
      op = SetOpKind::kIntersect;
    } else {
      Advance();  // except
      op = SetOpKind::kExcept;
    }
    MAYBMS_ASSIGN_OR_RETURN(auto next, ParseSimpleSelect());
    tail->set_op = op;
    tail->union_next = std::move(next);
    tail = tail->union_next.get();
  }
  // I-SQL world clauses attach to the head of the chain.
  MAYBMS_RETURN_NOT_OK(ParseWorldClauses(head.get()));
  return head;
}

Result<std::unique_ptr<SelectStatement>> Parser::ParseSimpleSelect() {
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("select"));
  auto select = std::make_unique<SelectStatement>();
  if (MatchKeyword("distinct")) select->distinct = true;

  if (MatchKeyword("possible")) {
    select->quantifier = WorldQuantifier::kPossible;
  } else if (MatchKeyword("certain")) {
    select->quantifier = WorldQuantifier::kCertain;
  } else if (CheckKeyword("conf") &&
             (CheckKeyword("from", 1) || Peek(1).type == TokenType::kComma ||
              Peek(1).type == TokenType::kEnd ||
              Peek(1).type == TokenType::kSemicolon ||
              Peek(1).type == TokenType::kLeftParen)) {
    Advance();
    select->quantifier = WorldQuantifier::kConf;
    if (Peek().type == TokenType::kLeftParen) {  // conf()
      Advance();
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    }
    // `select conf, E from ...` — further items follow the comma.
    Match(TokenType::kComma);
  }

  // Select items (may be absent entirely only for bare `select conf`).
  bool want_items = !(select->quantifier == WorldQuantifier::kConf &&
                      (CheckKeyword("from") ||
                       Peek().type == TokenType::kEnd ||
                       Peek().type == TokenType::kSemicolon));
  if (want_items) {
    while (true) {
      SelectItem item;
      if (Peek().type == TokenType::kStar) {
        Advance();
        item.star = true;
      } else if (Peek().type == TokenType::kIdentifier &&
                 Peek(1).type == TokenType::kDot &&
                 Peek(2).type == TokenType::kStar) {
        item.star = true;
        item.star_qualifier = Advance().text;
        Advance();  // '.'
        Advance();  // '*'
      } else {
        MAYBMS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("as")) {
          MAYBMS_ASSIGN_OR_RETURN(item.alias,
                                  ExpectIdentifier("alias after AS"));
        } else if (Peek().type == TokenType::kIdentifier &&
                   !IsReservedWord(Peek().text)) {
          item.alias = Advance().text;
        }
      }
      select->items.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
  }

  if (MatchKeyword("from")) {
    auto parse_table_ref = [&]() -> Result<TableRef> {
      TableRef ref;
      MAYBMS_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier("table name"));
      if (MatchKeyword("as")) {
        MAYBMS_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("table alias"));
      } else if (Peek().type == TokenType::kIdentifier &&
                 !IsReservedWord(Peek().text)) {
        ref.alias = Advance().text;
      }
      return ref;
    };
    while (true) {
      MAYBMS_ASSIGN_OR_RETURN(TableRef ref, parse_table_ref());
      select->from.push_back(std::move(ref));
      if (!Match(TokenType::kComma)) break;
    }
    // Explicit JOIN ... ON clauses after the comma list.
    while (CheckKeyword("join") || CheckKeyword("inner") ||
           CheckKeyword("left")) {
      JoinClause join;
      if (MatchKeyword("left")) {
        MatchKeyword("outer");
        join.kind = JoinKind::kLeftOuter;
        MAYBMS_RETURN_NOT_OK(ExpectKeyword("join"));
      } else {
        MatchKeyword("inner");
        MAYBMS_RETURN_NOT_OK(ExpectKeyword("join"));
      }
      MAYBMS_ASSIGN_OR_RETURN(join.table, parse_table_ref());
      MAYBMS_RETURN_NOT_OK(ExpectKeyword("on"));
      MAYBMS_ASSIGN_OR_RETURN(join.on, ParseExpr());
      select->joins.push_back(std::move(join));
    }
  }

  if (MatchKeyword("where")) {
    MAYBMS_ASSIGN_OR_RETURN(select->where, ParseExpr());
  }

  if (CheckKeyword("group") && CheckKeyword("by", 1)) {
    Advance();
    Advance();
    while (true) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      select->group_by.push_back(std::move(e));
      if (!Match(TokenType::kComma)) break;
    }
  }

  if (MatchKeyword("having")) {
    MAYBMS_ASSIGN_OR_RETURN(select->having, ParseExpr());
  }

  if (CheckKeyword("order") && CheckKeyword("by", 1)) {
    Advance();
    Advance();
    while (true) {
      OrderItem item;
      MAYBMS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("desc")) {
        item.descending = true;
      } else {
        MatchKeyword("asc");
      }
      select->order_by.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
  }

  if (MatchKeyword("limit")) {
    if (Peek().type != TokenType::kIntegerLiteral) {
      return ErrorHere("expected integer after LIMIT");
    }
    MAYBMS_ASSIGN_OR_RETURN(select->limit, IntegerLiteral());
  }

  return select;
}

Status Parser::ParseWorldClauses(SelectStatement* select) {
  while (true) {
    if (CheckKeyword("repair")) {
      Advance();
      MAYBMS_RETURN_NOT_OK(ExpectKeyword("by"));
      MAYBMS_RETURN_NOT_OK(ExpectKeyword("key"));
      RepairClause clause;
      MAYBMS_ASSIGN_OR_RETURN(clause.key_columns, ParseColumnNameList());
      if (MatchKeyword("weight")) {
        MAYBMS_ASSIGN_OR_RETURN(clause.weight_column,
                                ExpectIdentifier("weight column"));
      }
      if (select->repair.has_value()) {
        return ErrorHere("duplicate REPAIR BY KEY clause");
      }
      select->repair = std::move(clause);
    } else if (CheckKeyword("choice")) {
      Advance();
      MAYBMS_RETURN_NOT_OK(ExpectKeyword("of"));
      ChoiceClause clause;
      MAYBMS_ASSIGN_OR_RETURN(clause.columns, ParseColumnNameList());
      if (MatchKeyword("weight")) {
        MAYBMS_ASSIGN_OR_RETURN(clause.weight_column,
                                ExpectIdentifier("weight column"));
      }
      if (select->choice.has_value()) {
        return ErrorHere("duplicate CHOICE OF clause");
      }
      select->choice = std::move(clause);
    } else if (CheckKeyword("assert")) {
      Advance();
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      if (select->assert_condition) {
        // Multiple asserts conjoin.
        select->assert_condition = std::make_unique<BinaryExpr>(
            BinaryOp::kAnd, std::move(select->assert_condition),
            std::move(cond));
      } else {
        select->assert_condition = std::move(cond);
      }
    } else if (CheckKeyword("group") && CheckKeyword("worlds", 1)) {
      Advance();
      Advance();
      MAYBMS_RETURN_NOT_OK(ExpectKeyword("by"));
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kLeftParen,
                                  "'(' after GROUP WORLDS BY"));
      MAYBMS_ASSIGN_OR_RETURN(select->group_worlds_by, ParseSelect());
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    } else {
      break;
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> Parser::ParseColumnNameList() {
  std::vector<std::string> columns;
  while (true) {
    MAYBMS_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("column name"));
    columns.push_back(std::move(name));
    if (!Match(TokenType::kComma)) break;
  }
  return columns;
}

Result<StatementPtr> Parser::ParseCreate() {
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("create"));
  bool is_view = false;
  if (MatchKeyword("view")) {
    is_view = true;
  } else {
    MAYBMS_RETURN_NOT_OK(ExpectKeyword("table"));
  }
  MAYBMS_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));

  if (MatchKeyword("as")) {
    auto stmt = std::make_unique<CreateTableAsStatement>();
    stmt->table_name = std::move(name);
    stmt->is_view = is_view;
    MAYBMS_ASSIGN_OR_RETURN(stmt->query, ParseSelect());
    return StatementPtr(std::move(stmt));
  }

  if (is_view) return ErrorHere("expected AS after CREATE VIEW name");

  MAYBMS_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'(' or AS"));
  auto stmt = std::make_unique<CreateTableStatement>();
  stmt->table_name = std::move(name);
  while (true) {
    if (CheckKeyword("primary")) {
      Advance();
      MAYBMS_RETURN_NOT_OK(ExpectKeyword("key"));
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('"));
      Constraint c;
      c.kind = ConstraintKind::kPrimaryKey;
      MAYBMS_ASSIGN_OR_RETURN(c.columns, ParseColumnNameList());
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      stmt->table_constraints.push_back(std::move(c));
    } else if (CheckKeyword("unique")) {
      Advance();
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('"));
      Constraint c;
      c.kind = ConstraintKind::kUnique;
      MAYBMS_ASSIGN_OR_RETURN(c.columns, ParseColumnNameList());
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      stmt->table_constraints.push_back(std::move(c));
    } else {
      ColumnDef col;
      MAYBMS_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
      MAYBMS_ASSIGN_OR_RETURN(std::string type_name,
                              ExpectIdentifier("column type"));
      MAYBMS_ASSIGN_OR_RETURN(col.type, DataTypeFromString(type_name));
      while (true) {
        if (CheckKeyword("primary") && CheckKeyword("key", 1)) {
          Advance();
          Advance();
          col.primary_key = true;
        } else if (MatchKeyword("unique")) {
          col.unique = true;
        } else if (CheckKeyword("not") && CheckKeyword("null", 1)) {
          Advance();
          Advance();
          col.not_null = true;
        } else {
          break;
        }
      }
      stmt->columns.push_back(std::move(col));
    }
    if (!Match(TokenType::kComma)) break;
  }
  MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseDrop() {
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("drop"));
  if (!MatchKeyword("table") && !MatchKeyword("view")) {
    return ErrorHere("expected TABLE or VIEW after DROP");
  }
  auto stmt = std::make_unique<DropTableStatement>();
  if (CheckKeyword("if") && CheckKeyword("exists", 1)) {
    Advance();
    Advance();
    stmt->if_exists = true;
  }
  MAYBMS_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseInsert() {
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("insert"));
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("into"));
  auto stmt = std::make_unique<InsertStatement>();
  MAYBMS_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));

  if (Peek().type == TokenType::kLeftParen && !CheckKeyword("select", 1)) {
    Advance();
    MAYBMS_ASSIGN_OR_RETURN(stmt->columns, ParseColumnNameList());
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
  }

  if (MatchKeyword("values")) {
    while (true) {
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('"));
      std::vector<ExprPtr> row;
      while (true) {
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!Match(TokenType::kComma)) break;
      }
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      stmt->rows.push_back(std::move(row));
      if (!Match(TokenType::kComma)) break;
    }
  } else if (CheckKeyword("select")) {
    MAYBMS_ASSIGN_OR_RETURN(stmt->query, ParseSelect());
  } else {
    return ErrorHere("expected VALUES or SELECT");
  }
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseUpdate() {
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("update"));
  auto stmt = std::make_unique<UpdateStatement>();
  MAYBMS_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("set"));
  while (true) {
    MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kEquals, "'='"));
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    stmt->assignments.emplace_back(std::move(col), std::move(e));
    if (!Match(TokenType::kComma)) break;
  }
  if (MatchKeyword("where")) {
    MAYBMS_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseDelete() {
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("delete"));
  MAYBMS_RETURN_NOT_OK(ExpectKeyword("from"));
  auto stmt = std::make_unique<DeleteStatement>();
  MAYBMS_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
  if (MatchKeyword("where")) {
    MAYBMS_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StatementPtr(std::move(stmt));
}

// ----------------------------- Expressions ---------------------------------

Result<ExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<ExprPtr> Parser::ParseOr() {
  MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (MatchKeyword("or")) {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    left = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(left),
                                        std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseAnd() {
  MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (CheckKeyword("and")) {
    Advance();
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    left = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(left),
                                        std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchKeyword("not")) {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return ExprPtr(
        std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand)));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());

  // IS [NOT] NULL
  if (CheckKeyword("is")) {
    Advance();
    bool negated = MatchKeyword("not");
    MAYBMS_RETURN_NOT_OK(ExpectKeyword("null"));
    return ExprPtr(std::make_unique<IsNullExpr>(std::move(left), negated));
  }

  bool negated = false;
  if (CheckKeyword("not") &&
      (CheckKeyword("in", 1) || CheckKeyword("between", 1) ||
       CheckKeyword("like", 1))) {
    Advance();
    negated = true;
  }

  if (MatchKeyword("in")) {
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'(' after IN"));
    if (CheckKeyword("select")) {
      MAYBMS_ASSIGN_OR_RETURN(auto sub, ParseSelect());
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      return ExprPtr(std::make_unique<InSubqueryExpr>(std::move(left),
                                                      std::move(sub), negated));
    }
    std::vector<ExprPtr> items;
    while (true) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      items.push_back(std::move(e));
      if (!Match(TokenType::kComma)) break;
    }
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    return ExprPtr(std::make_unique<InListExpr>(std::move(left),
                                                std::move(items), negated));
  }

  if (MatchKeyword("between")) {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr low, ParseAdditive());
    MAYBMS_RETURN_NOT_OK(ExpectKeyword("and"));
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr high, ParseAdditive());
    return ExprPtr(std::make_unique<BetweenExpr>(
        std::move(left), std::move(low), std::move(high), negated));
  }

  if (MatchKeyword("like")) {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
    ExprPtr like = std::make_unique<BinaryExpr>(
        BinaryOp::kLike, std::move(left), std::move(pattern));
    if (negated) {
      like = std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(like));
    }
    return like;
  }

  BinaryOp op;
  switch (Peek().type) {
    case TokenType::kEquals:
      op = BinaryOp::kEquals;
      break;
    case TokenType::kNotEquals:
      op = BinaryOp::kNotEquals;
      break;
    case TokenType::kLess:
      op = BinaryOp::kLess;
      break;
    case TokenType::kLessEquals:
      op = BinaryOp::kLessEquals;
      break;
    case TokenType::kGreater:
      op = BinaryOp::kGreater;
      break;
    case TokenType::kGreaterEquals:
      op = BinaryOp::kGreaterEquals;
      break;
    default:
      return left;
  }
  Advance();
  MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
  return ExprPtr(std::make_unique<BinaryExpr>(op, std::move(left),
                                              std::move(right)));
}

Result<ExprPtr> Parser::ParseAdditive() {
  MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (Peek().type == TokenType::kPlus) {
      op = BinaryOp::kAdd;
    } else if (Peek().type == TokenType::kMinus) {
      op = BinaryOp::kSubtract;
    } else {
      break;
    }
    Advance();
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
    left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  MAYBMS_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
  while (true) {
    BinaryOp op;
    if (Peek().type == TokenType::kStar) {
      op = BinaryOp::kMultiply;
    } else if (Peek().type == TokenType::kSlash) {
      op = BinaryOp::kDivide;
    } else if (Peek().type == TokenType::kPercent) {
      op = BinaryOp::kModulo;
    } else {
      break;
    }
    Advance();
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
    left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    // -9223372036854775808 is INT64_MIN; its magnitude alone is too big.
    if (Peek().type == TokenType::kIntegerLiteral &&
        Peek().int_value == uint64_t{1} << 63) {
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(
          Value::Integer(std::numeric_limits<int64_t>::min())));
    }
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    return ExprPtr(
        std::make_unique<UnaryExpr>(UnaryOp::kNegate, std::move(operand)));
  }
  Match(TokenType::kPlus);  // unary plus is a no-op
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();

  switch (tok.type) {
    case TokenType::kIntegerLiteral: {
      MAYBMS_ASSIGN_OR_RETURN(int64_t value, IntegerLiteral());
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Integer(value)));
    }
    case TokenType::kRealLiteral: {
      Token t = Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Real(t.real_value)));
    }
    case TokenType::kStringLiteral: {
      Token t = Advance();
      return ExprPtr(
          std::make_unique<LiteralExpr>(Value::Text(std::move(t.text))));
    }
    case TokenType::kLeftParen: {
      Advance();
      if (CheckKeyword("select")) {
        MAYBMS_ASSIGN_OR_RETURN(auto sub, ParseSelect());
        MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
        return ExprPtr(std::make_unique<ScalarSubqueryExpr>(std::move(sub)));
      }
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      return inner;
    }
    case TokenType::kIdentifier:
      break;  // handled below
    default:
      return ErrorHere("expected an expression");
  }

  // Keyword-led expressions.
  if (CheckKeyword("true")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value::Boolean(true)));
  }
  if (CheckKeyword("false")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value::Boolean(false)));
  }
  if (CheckKeyword("null")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value::Null()));
  }
  if (CheckKeyword("exists")) {
    Advance();
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'(' after EXISTS"));
    MAYBMS_ASSIGN_OR_RETURN(auto sub, ParseSelect());
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    return ExprPtr(std::make_unique<ExistsExpr>(std::move(sub), false));
  }
  if (CheckKeyword("case")) {
    Advance();
    std::vector<CaseExpr::WhenClause> whens;
    ExprPtr else_result;
    while (MatchKeyword("when")) {
      CaseExpr::WhenClause clause;
      MAYBMS_ASSIGN_OR_RETURN(clause.condition, ParseExpr());
      MAYBMS_RETURN_NOT_OK(ExpectKeyword("then"));
      MAYBMS_ASSIGN_OR_RETURN(clause.result, ParseExpr());
      whens.push_back(std::move(clause));
    }
    if (whens.empty()) return ErrorHere("CASE requires at least one WHEN");
    if (MatchKeyword("else")) {
      MAYBMS_ASSIGN_OR_RETURN(else_result, ParseExpr());
    }
    MAYBMS_RETURN_NOT_OK(ExpectKeyword("end"));
    return ExprPtr(
        std::make_unique<CaseExpr>(std::move(whens), std::move(else_result)));
  }
  if (CheckKeyword("cast")) {
    Advance();
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'(' after CAST"));
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
    MAYBMS_RETURN_NOT_OK(ExpectKeyword("as"));
    MAYBMS_ASSIGN_OR_RETURN(std::string type_name,
                            ExpectIdentifier("type name"));
    MAYBMS_ASSIGN_OR_RETURN(DataType type, DataTypeFromString(type_name));
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    return ExprPtr(std::make_unique<CastExpr>(std::move(operand), type));
  }

  // Function call?
  if (Peek(1).type == TokenType::kLeftParen) {
    std::string name = AsciiToLower(Advance().text);
    Advance();  // '('
    bool star = false;
    bool distinct = false;
    std::vector<ExprPtr> args;
    if (Peek().type == TokenType::kStar) {
      Advance();
      star = true;
    } else if (Peek().type != TokenType::kRightParen) {
      if (MatchKeyword("distinct")) distinct = true;
      while (true) {
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        args.push_back(std::move(e));
        if (!Match(TokenType::kComma)) break;
      }
    }
    MAYBMS_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    return ExprPtr(std::make_unique<FunctionCallExpr>(
        std::move(name), std::move(args), distinct, star));
  }

  // Column reference: name or qualifier.name
  std::string first = Advance().text;
  if (Match(TokenType::kDot)) {
    MAYBMS_ASSIGN_OR_RETURN(std::string name,
                            ExpectIdentifier("column name after '.'"));
    return ExprPtr(
        std::make_unique<ColumnRefExpr>(std::move(first), std::move(name)));
  }
  return ExprPtr(std::make_unique<ColumnRefExpr>("", std::move(first)));
}

}  // namespace maybms::sql
