#include "sql/parser.h"

#include <gtest/gtest.h>

namespace maybms::sql {
namespace {

std::unique_ptr<SelectStatement> ParseSelect(const std::string& text) {
  auto stmt = Parser::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << text << " -> " << stmt.status().ToString();
  if (!stmt.ok()) return nullptr;
  EXPECT_EQ((*stmt)->kind, StatementKind::kSelect);
  return std::unique_ptr<SelectStatement>(
      static_cast<SelectStatement*>(stmt->release()));
}

TEST(ParserTest, SimpleSelectStar) {
  auto stmt = ParseSelect("select * from R");
  ASSERT_NE(stmt, nullptr);
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_TRUE(stmt->items[0].star);
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].table_name, "R");
  EXPECT_EQ(stmt->where, nullptr);
}

TEST(ParserTest, SelectWithAliasesAndQualifiedColumns) {
  auto stmt = ParseSelect(
      "select i2.G as G2, i3.G G3 from I i2, I as i3 where i2.Id = 2");
  ASSERT_NE(stmt, nullptr);
  ASSERT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[0].alias, "G2");
  EXPECT_EQ(stmt->items[1].alias, "G3");
  ASSERT_EQ(stmt->from.size(), 2u);
  EXPECT_EQ(stmt->from[0].effective_alias(), "i2");
  EXPECT_EQ(stmt->from[1].effective_alias(), "i3");
  ASSERT_NE(stmt->where, nullptr);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("select 1 + 2 * 3 = 7 and not 1 > 2");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->ToString(),
            "(((1 + (2 * 3)) = 7) AND NOT ((1 > 2)))");
}

TEST(ParserTest, RepairByKeyWithWeight) {
  auto stmt = ParseSelect(
      "select A, B, C from R repair by key A weight D");
  ASSERT_NE(stmt, nullptr);
  ASSERT_TRUE(stmt->repair.has_value());
  EXPECT_EQ(stmt->repair->key_columns, std::vector<std::string>{"A"});
  EXPECT_EQ(stmt->repair->weight_column, "D");
}

TEST(ParserTest, RepairByCompositeKey) {
  auto stmt = ParseSelect("select SSN', TEL' from S repair by key SSN, TEL");
  ASSERT_NE(stmt, nullptr);
  ASSERT_TRUE(stmt->repair.has_value());
  EXPECT_EQ(stmt->repair->key_columns,
            (std::vector<std::string>{"SSN", "TEL"}));
  EXPECT_TRUE(stmt->repair->weight_column.empty());
  // Primed identifiers in the projection.
  ASSERT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[0].expr->ToString(), "SSN'");
}

TEST(ParserTest, ChoiceOfWithWeight) {
  auto stmt = ParseSelect("select * from R choice of A weight D");
  ASSERT_NE(stmt, nullptr);
  ASSERT_TRUE(stmt->choice.has_value());
  EXPECT_EQ(stmt->choice->columns, std::vector<std::string>{"A"});
  EXPECT_EQ(stmt->choice->weight_column, "D");
}

TEST(ParserTest, PossibleCertainConfQuantifiers) {
  EXPECT_EQ(ParseSelect("select possible sum(B) from I")->quantifier,
            WorldQuantifier::kPossible);
  EXPECT_EQ(ParseSelect("select certain E from S choice of C")->quantifier,
            WorldQuantifier::kCertain);
  EXPECT_EQ(ParseSelect("select conf from I")->quantifier,
            WorldQuantifier::kConf);
  EXPECT_EQ(ParseSelect("select conf, B from I")->quantifier,
            WorldQuantifier::kConf);
  // A column actually named conf is still usable when aliased/qualified.
  auto stmt = ParseSelect("select t.conf from T t");
  EXPECT_EQ(stmt->quantifier, WorldQuantifier::kNone);
}

TEST(ParserTest, PossibleWithStringLiteral) {
  auto stmt = ParseSelect(
      "select possible 'yes' from I where Id=1 and Pos='b'");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->quantifier, WorldQuantifier::kPossible);
  EXPECT_EQ(stmt->items[0].expr->ToString(), "'yes'");
}

TEST(ParserTest, AssertWithSubquery) {
  auto stmt = ParseSelect(
      "select * from I assert not exists(select * from I where C = 'c1')");
  ASSERT_NE(stmt, nullptr);
  ASSERT_NE(stmt->assert_condition, nullptr);
  EXPECT_EQ(stmt->assert_condition->kind, ExprKind::kUnary);
}

TEST(ParserTest, MultipleAssertsConjoin) {
  auto stmt = ParseSelect("select * from I assert 1 = 1 assert 2 = 2");
  ASSERT_NE(stmt, nullptr);
  ASSERT_NE(stmt->assert_condition, nullptr);
  EXPECT_EQ(stmt->assert_condition->ToString(), "((1 = 1) AND (2 = 2))");
}

TEST(ParserTest, GroupWorldsByVsGroupBy) {
  auto stmt = ParseSelect(
      "select possible G from I group worlds by (select Pos from I)");
  ASSERT_NE(stmt, nullptr);
  ASSERT_NE(stmt->group_worlds_by, nullptr);
  EXPECT_TRUE(stmt->group_by.empty());

  stmt = ParseSelect("select G, count(*) from I group by G");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->group_worlds_by, nullptr);
  EXPECT_EQ(stmt->group_by.size(), 1u);
}

TEST(ParserTest, UnionChain) {
  auto stmt = ParseSelect(
      "select A from R union select B from R union all select C from R");
  ASSERT_NE(stmt, nullptr);
  ASSERT_NE(stmt->union_next, nullptr);
  EXPECT_EQ(stmt->set_op, SetOpKind::kUnion);
  ASSERT_NE(stmt->union_next->union_next, nullptr);
  EXPECT_EQ(stmt->union_next->set_op, SetOpKind::kUnionAll);
}

TEST(ParserTest, WorldClausesAfterUnionAttachToHead) {
  auto stmt = ParseSelect(
      "select A from R union select B from R repair by key A");
  ASSERT_NE(stmt, nullptr);
  EXPECT_TRUE(stmt->repair.has_value());
  EXPECT_FALSE(stmt->union_next->repair.has_value());
}

TEST(ParserTest, GroupByHavingOrderByLimit) {
  auto stmt = ParseSelect(
      "select A, sum(B) from R group by A having sum(B) > 10 "
      "order by A desc, sum(B) limit 5");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_FALSE(stmt->order_by[1].descending);
  EXPECT_EQ(stmt->limit, 5);
}

TEST(ParserTest, InBetweenLikeIsNull) {
  auto stmt = ParseSelect(
      "select * from R where A in ('x', 'y') and B between 1 and 3 "
      "and C like 'c%' and D is not null");
  ASSERT_NE(stmt, nullptr);
  ASSERT_NE(stmt->where, nullptr);
}

TEST(ParserTest, InSubqueryAndScalarSubquery) {
  auto stmt = ParseSelect(
      "select * from R where A in (select A from S) "
      "and B > (select sum(B) from S)");
  ASSERT_NE(stmt, nullptr);
}

TEST(ParserTest, CaseAndCast) {
  auto stmt = ParseSelect(
      "select case when B > 10 then 'big' else 'small' end, "
      "cast(B as real) from R");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->kind, ExprKind::kCase);
  EXPECT_EQ(stmt->items[1].expr->kind, ExprKind::kCast);
}

TEST(ParserTest, CreateTableWithConstraints) {
  auto stmt = Parser::ParseStatement(
      "create table T (A text primary key, B integer not null, "
      "C text unique, unique (A, B))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto* create = static_cast<CreateTableStatement*>(stmt->get());
  EXPECT_EQ(create->table_name, "T");
  ASSERT_EQ(create->columns.size(), 3u);
  EXPECT_TRUE(create->columns[0].primary_key);
  EXPECT_TRUE(create->columns[1].not_null);
  EXPECT_TRUE(create->columns[2].unique);
  ASSERT_EQ(create->table_constraints.size(), 1u);
  EXPECT_EQ(create->table_constraints[0].columns,
            (std::vector<std::string>{"A", "B"}));
}

TEST(ParserTest, CreateTableAsAndCreateView) {
  auto stmt = Parser::ParseStatement("create table I as select * from R");
  ASSERT_TRUE(stmt.ok());
  auto* ctas = static_cast<CreateTableAsStatement*>(stmt->get());
  EXPECT_FALSE(ctas->is_view);

  stmt = Parser::ParseStatement("create view V as select * from R");
  ASSERT_TRUE(stmt.ok());
  auto* view = static_cast<CreateTableAsStatement*>(stmt->get());
  EXPECT_TRUE(view->is_view);
  EXPECT_EQ(view->table_name, "V");
}

TEST(ParserTest, InsertUpdateDelete) {
  auto insert = Parser::ParseStatement(
      "insert into R (A, B) values ('x', 1), ('y', 2)");
  ASSERT_TRUE(insert.ok());
  auto* ins = static_cast<InsertStatement*>(insert->get());
  EXPECT_EQ(ins->columns.size(), 2u);
  EXPECT_EQ(ins->rows.size(), 2u);

  auto insert_select =
      Parser::ParseStatement("insert into R select * from S");
  ASSERT_TRUE(insert_select.ok());
  EXPECT_NE(static_cast<InsertStatement*>(insert_select->get())->query,
            nullptr);

  auto update = Parser::ParseStatement(
      "update R set B = B + 1, A = 'z' where A = 'x'");
  ASSERT_TRUE(update.ok());
  auto* upd = static_cast<UpdateStatement*>(update->get());
  EXPECT_EQ(upd->assignments.size(), 2u);
  EXPECT_NE(upd->where, nullptr);

  auto del = Parser::ParseStatement("delete from R where B < 0");
  ASSERT_TRUE(del.ok());
  EXPECT_NE(static_cast<DeleteStatement*>(del->get())->where, nullptr);
}

TEST(ParserTest, DropTable) {
  auto stmt = Parser::ParseStatement("drop table if exists T");
  ASSERT_TRUE(stmt.ok());
  auto* drop = static_cast<DropTableStatement*>(stmt->get());
  EXPECT_TRUE(drop->if_exists);
  EXPECT_EQ(drop->table_name, "T");
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto script = Parser::ParseScript(
      "create table T (A text); insert into T values ('x');;"
      "select * from T;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->size(), 3u);
}

TEST(ParserTest, ErrorsCarryOffsets) {
  auto bad = Parser::ParseStatement("select from from");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);

  bad = Parser::ParseStatement("select * frm R");
  ASSERT_FALSE(bad.ok());

  bad = Parser::ParseStatement("create table T");
  ASSERT_FALSE(bad.ok());

  bad = Parser::ParseStatement("select * from R where");
  ASSERT_FALSE(bad.ok());
}

// The parser pulls tokens as it goes, but a lexical error anywhere in the
// input still comes before any parse error, as when the whole input was
// lexed first.
TEST(ParserTest, LexicalErrorsBeatParseErrors) {
  const char* kInputs[] = {
      "select from where 'unterminated",
      "select * frm R where A = 1 #",
      "select 1 2 3 \"open",
      "select * from R; insert into T values (99999999999999999999)",
  };
  for (const char* text : kInputs) {
    for (const auto& status :
         {Parser::ParseStatement(text).status(),
          Parser::ParseScript(text).status()}) {
      ASSERT_FALSE(status.ok()) << text;
      const std::string message = status.ToString();
      EXPECT_TRUE(message.find("unterminated") != std::string::npos ||
                  message.find("unexpected character") != std::string::npos ||
                  message.find("out of range") != std::string::npos)
          << text << " -> " << message;
    }
  }
  // A script whose statements all parse before the lexical error.
  auto script = Parser::ParseScript("select 1; select 2; 'oops");
  ASSERT_FALSE(script.ok());
  EXPECT_NE(script.status().ToString().find("unterminated"), std::string::npos);
  // Without a lexical error, the parse error and its offset.
  auto bad = Parser::ParseStatement("select * frm R");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("offset 9"), std::string::npos)
      << bad.status().ToString();
}

TEST(ParserTest, LongInsertParsesEveryRow) {
  constexpr int kRows = 2000;
  std::string text = "insert into R values ";
  for (int r = 0; r < kRows; ++r) {
    text += (r > 0 ? ", (" : "(") + std::to_string(r) + ", " +
            std::to_string(-r * 7) + ", 'k" + std::to_string(r % 13) +
            "', " + std::to_string(r) + ".5)";
  }
  for (const std::string& input : {text, text + ";"}) {
    auto stmt = Parser::ParseStatement(input);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    const auto& insert = static_cast<const InsertStatement&>(**stmt);
    ASSERT_EQ(insert.rows.size(), static_cast<size_t>(kRows));
    for (int r = 0; r < kRows; ++r) {
      const std::vector<ExprPtr>& row = insert.rows[r];
      ASSERT_EQ(row.size(), 4u);
      EXPECT_EQ(row[0]->ToString(), std::to_string(r));
      // -r * 7 is a unary minus on a literal (none for r = 0).
      EXPECT_EQ(row[1]->kind,
                r == 0 ? ExprKind::kLiteral : ExprKind::kUnary);
      EXPECT_EQ(static_cast<const LiteralExpr&>(*row[2]).value.AsText(),
                "k" + std::to_string(r % 13));
      EXPECT_EQ(static_cast<const LiteralExpr&>(*row[3]).value.AsReal(),
                r + 0.5);
    }
  }
}

TEST(ParserTest, CloneRoundTripsToString) {
  const char* queries[] = {
      "SELECT DISTINCT A, B AS x FROM R t WHERE (A = 'a') ORDER BY A LIMIT 3",
      "SELECT POSSIBLE SUM(B) FROM I",
      "SELECT * FROM R REPAIR BY KEY A WEIGHT D",
      "SELECT * FROM S CHOICE OF E",
      "SELECT * FROM I ASSERT EXISTS (SELECT * FROM I WHERE (G = 'cow'))",
  };
  for (const char* q : queries) {
    auto stmt = ParseSelect(q);
    ASSERT_NE(stmt, nullptr) << q;
    EXPECT_EQ(stmt->ToString(), stmt->Clone()->ToString()) << q;
  }
}

}  // namespace
}  // namespace maybms::sql
