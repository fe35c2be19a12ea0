// Unit tests for the world-set combination helpers (possible, certain,
// conf) and referenced-relation collection, plus the explicit engine's
// direct API.

#include "worlds/world_set.h"

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "tests/set_combiners.h"
#include "tests/test_util.h"
#include "worlds/explicit_world_set.h"

namespace maybms::worlds {
namespace {

using maybms::testing::CombineCertain;
using maybms::testing::CombineConf;
using maybms::testing::CombinePossible;
using maybms::testing::I;
using maybms::testing::Row;
using maybms::testing::T;

Table OneColumn(std::vector<int64_t> values) {
  Schema schema({Column("X", DataType::kInteger)});
  Table t(schema);
  for (int64_t v : values) t.AppendUnchecked(Row({I(v)}));
  return t;
}

TEST(CombineTest, PossibleIsDistinctUnion) {
  std::vector<std::pair<double, Table>> entries = {
      {0.5, OneColumn({1, 2, 2})},
      {0.5, OneColumn({2, 3})},
  };
  Table result = CombinePossible(entries);
  maybms::testing::ExpectRows(result, {"(1)", "(2)", "(3)"});
}

TEST(CombineTest, CertainIsIntersection) {
  std::vector<std::pair<double, Table>> entries = {
      {0.25, OneColumn({1, 2, 3})},
      {0.25, OneColumn({2, 3})},
      {0.50, OneColumn({3, 2, 9})},
  };
  Table result = CombineCertain(entries);
  maybms::testing::ExpectRows(result, {"(2)", "(3)"});
}

TEST(CombineTest, CertainOfSingleWorldIsItsDistinctRows) {
  std::vector<std::pair<double, Table>> entries = {{1.0, OneColumn({5, 5})}};
  maybms::testing::ExpectRows(CombineCertain(entries), {"(5)"});
}

TEST(CombineTest, ConfSumsWorldProbabilities) {
  std::vector<std::pair<double, Table>> entries = {
      {0.25, OneColumn({1, 2})},
      {0.75, OneColumn({2})},
  };
  Table result = CombineConf(entries);
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.schema().column(1).name, "conf");
  EXPECT_EQ(result.row(0).value(0).AsInteger(), 1);
  EXPECT_NEAR(result.row(0).value(1).AsReal(), 0.25, 1e-12);
  EXPECT_EQ(result.row(1).value(0).AsInteger(), 2);
  EXPECT_NEAR(result.row(1).value(1).AsReal(), 1.0, 1e-12);
}

TEST(CombineTest, ConfDeduplicatesWithinAWorld) {
  std::vector<std::pair<double, Table>> entries = {
      {0.5, OneColumn({7, 7, 7})},
      {0.5, OneColumn({})},
  };
  Table result = CombineConf(entries);
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_NEAR(result.row(0).value(1).AsReal(), 0.5, 1e-12);
}

TEST(CombineTest, ZeroAryConfIsProbabilityOfNonEmpty) {
  Table empty;              // 0 columns, 0 rows
  Table nonempty;           // 0 columns, 1 row
  nonempty.AppendUnchecked(Tuple());
  std::vector<std::pair<double, Table>> entries = {
      {0.3, nonempty},
      {0.7, empty},
  };
  Table result = CombineConf(entries);
  ASSERT_EQ(result.num_rows(), 1u);
  ASSERT_EQ(result.schema().num_columns(), 1u);
  EXPECT_EQ(result.schema().column(0).name, "conf");
  EXPECT_NEAR(result.row(0).value(0).AsReal(), 0.3, 1e-12);
}

TEST(ReferencedRelationsTest, CollectsFromEverywhere) {
  auto stmt = sql::Parser::ParseStatement(
      "select (select max(X) from Sub1), A from T1 t, T2 "
      "where exists (select * from Sub2 where Sub2.Y = t.A) "
      "and A in (select Z from Sub3) "
      "union select B from T3 "
      "assert not exists (select * from Sub4) "
      "group worlds by (select * from Sub5)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::set<std::string> refs;
  CollectReferencedRelations(
      static_cast<const sql::SelectStatement&>(**stmt), &refs);
  EXPECT_EQ(refs, (std::set<std::string>{"t1", "t2", "t3", "sub1", "sub2",
                                         "sub3", "sub4", "sub5"}));
}

TEST(ExplicitWorldSetTest, StartsWithOneEmptyWorld) {
  ExplicitWorldSet ws;
  EXPECT_EQ(ws.NumWorlds(), 1u);
  EXPECT_EQ(ws.EngineName(), "explicit");
  EXPECT_TRUE(ws.RelationNames().empty());
}

TEST(ExplicitWorldSetTest, MaterializeWorldsHonorsCap) {
  ExplicitWorldSet ws;
  MAYBMS_ASSERT_OK(ws.CreateBaseTable("T", OneColumn({1, 2, 3, 4, 5})));
  auto choice = sql::Parser::ParseStatement("select * from T choice of X");
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  MAYBMS_ASSERT_OK(ws.MaterializeSelect(
      "C", static_cast<const sql::SelectStatement&>(**choice)));
  ASSERT_EQ(ws.NumWorlds(), 5u);
  bool truncated = false;
  auto out = ws.MaterializeWorlds(3, &truncated);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
  EXPECT_TRUE(truncated);
  out = ws.MaterializeWorlds(100, &truncated);
  EXPECT_EQ(out->size(), 5u);
  EXPECT_FALSE(truncated);
}

TEST(ExplicitWorldSetTest, CreateAndDropBaseTable) {
  ExplicitWorldSet ws;
  Schema schema({Column("A", DataType::kText)});
  MAYBMS_EXPECT_OK(ws.CreateBaseTable("T", Table(schema)));
  EXPECT_TRUE(ws.HasRelation("t"));
  EXPECT_EQ(ws.CreateBaseTable("T", Table(schema)).code(),
            StatusCode::kAlreadyExists);
  MAYBMS_EXPECT_OK(ws.DropRelation("T"));
  EXPECT_EQ(ws.DropRelation("T").code(), StatusCode::kNotFound);
}

TEST(StripWorldOpsTest, RemovesAllWorldClauses) {
  auto stmt = sql::Parser::ParseStatement(
      "select possible A from R repair by key A assert 1=1 "
      "group worlds by (select B from R)");
  ASSERT_TRUE(stmt.ok());
  auto core =
      StripWorldOps(static_cast<const sql::SelectStatement&>(**stmt));
  EXPECT_EQ(core->quantifier, sql::WorldQuantifier::kNone);
  EXPECT_FALSE(core->repair.has_value());
  EXPECT_EQ(core->assert_condition, nullptr);
  EXPECT_EQ(core->group_worlds_by, nullptr);
  EXPECT_EQ(core->items.size(), 1u) << "SQL core retained";
}

TEST(CanonicalizeGroupKeyTest, SortsAndDeduplicates) {
  Table key = OneColumn({3, 1, 3, 2});
  Table canonical = CanonicalizeGroupKey(key);
  ASSERT_EQ(canonical.num_rows(), 3u);
  EXPECT_EQ(canonical.row(0).value(0).AsInteger(), 1);
  EXPECT_EQ(canonical.row(2).value(0).AsInteger(), 3);
}

}  // namespace
}  // namespace maybms::worlds
