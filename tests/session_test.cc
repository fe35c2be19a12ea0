// Session-level tests: statement routing, views (including views over
// derived world-sets), error handling, and session options.

#include "isql/session.h"

#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace maybms::isql {
namespace {

using maybms::testing::EngineTest;
using maybms::testing::Exec;
using maybms::testing::ExecScript;
using maybms::testing::ExpectRows;
using maybms::testing::WorldDistribution;

class SessionTest : public EngineTest {};

TEST_P(SessionTest, DdlAndDmlMessages) {
  Session session((Options()));
  QueryResult r = Exec(session, "create table T (A text);");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  r = Exec(session, "insert into T values ('x');");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  r = Exec(session, "update T set A = 'y';");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  r = Exec(session, "delete from T;");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  r = Exec(session, "drop table T;");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
}

TEST_P(SessionTest, IntegerLiteralsAreRangeChecked) {
  Session session(Options());
  ExecScript(session, "create table T (X integer);");
  auto insert = session.Execute("insert into T values (99999999999999999999);");
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.status().code(), StatusCode::kParseError);
  auto big = session.Execute("select 9223372036854775808;");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kParseError);
  auto cast =
      session.Execute("select cast('99999999999999999999' as integer);");
  ASSERT_FALSE(cast.ok());
  EXPECT_EQ(cast.status().code(), StatusCode::kTypeError);
  // INT64_MIN is written as the negation of its out-of-range magnitude.
  Exec(session, "insert into T values (-9223372036854775808);");
  QueryResult rows = Exec(session, "select possible X from T;");
  ASSERT_EQ(rows.table().num_rows(), 1u);
  EXPECT_EQ(rows.table().row(0).value(0).AsInteger(),
            std::numeric_limits<int64_t>::min());
}

// DML runs in every world against the relations it names; a subquery
// over a missing relation fails only in a world where a row reaches it.
TEST_P(SessionTest, DmlReachesAMissingRelationOnlyThroughARow) {
  Session session(Options());
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1, 1), (1, 2);
    create table I as select * from R repair by key K;
  )sql");
  Exec(session,
       "update I set V = 0 where K < 0 and exists(select * from Missing);");
  auto r = session.Execute(
      "update I set V = 0 where exists(select * from Missing);");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  ExpectRows(Exec(session, "select possible V from I;").table(), {"(1)", "(2)"});
}

TEST_P(SessionTest, ParseErrorsSurface) {
  Session session((Options()));
  auto r = session.Execute("selec * from T;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_P(SessionTest, DuplicateTableIsError) {
  Session session((Options()));
  Exec(session, "create table T (A text);");
  auto r = session.Execute("create table T (B text);");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  r = session.Execute("create table T as select * from T;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_P(SessionTest, QueryUnknownRelationIsNotFound) {
  Session session((Options()));
  auto r = session.Execute("select * from Nope;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_P(SessionTest, ExecuteScriptReturnsAllResults) {
  Session session((Options()));
  auto results = session.ExecuteScript(
      "create table T (A integer); insert into T values (1), (2);"
      "select * from T;");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[2].kind(), QueryResult::Kind::kWorlds);
}

TEST_P(SessionTest, ScriptStopsAtFirstError) {
  Session session((Options()));
  auto results = session.ExecuteScript(
      "create table T (A integer); select * from Missing; "
      "create table U (B integer);");
  ASSERT_FALSE(results.ok());
  // T was created before the failure; U was not.
  EXPECT_TRUE(session.world_set().HasRelation("T"));
  EXPECT_FALSE(session.world_set().HasRelation("U"));
}

TEST_P(SessionTest, PlainViewExpandsTransparently) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view BigB as select A, B from R where B >= 15;");
  QueryResult r = Exec(session, "select A from BigB where A <> 'a3';");
  auto dist = WorldDistribution(r.worlds());
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist.begin()->first, "(a1);(a2);");
  EXPECT_EQ(session.ViewNames(), std::vector<std::string>{"bigb"});
}

TEST_P(SessionTest, ViewOverViewResolvesRecursively) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view V1 as select A, B from R;");
  Exec(session, "create view V2 as select A from V1 where B = 20;");
  QueryResult r = Exec(session, "select distinct A from V2;");
  auto dist = WorldDistribution(r.worlds());
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist.begin()->first, "(a2);(a3);");
}

TEST_P(SessionTest, CyclicViewsDetected) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view W1 as select * from W2;");
  Exec(session, "create view W2 as select * from W1;");
  auto r = session.Execute("select * from W1;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(SessionTest, WorldCreatingViewIsReevaluatedPerQuery) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  // A view with repair: each query over it sees the repaired world-set,
  // but the session's own world-set stays single-world.
  Exec(session,
       "create view Rep as select A, B, C from R repair by key A;");
  QueryResult r = Exec(session, "select possible B from Rep;");
  ASSERT_EQ(r.kind(), QueryResult::Kind::kTable);
  ExpectRows(r.table(), {"(10)", "(14)", "(15)", "(20)"});
  EXPECT_EQ(session.world_set().NumWorlds(), 1u);
}

TEST_P(SessionTest, CreateTableFromViewMakesDerivedWorldSetReal) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view Rep as select A, B, C from R repair by key A;");
  Exec(session, "create table Mat as select * from Rep where B >= 15;");
  // The repair inside the view became real: four worlds now.
  QueryResult r = Exec(session, "select * from Mat;");
  EXPECT_EQ(WorldDistribution(r.worlds()).size(), 4u);
}

TEST_P(SessionTest, DropViewRemovesOnlyTheView) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view V as select * from R;");
  Exec(session, "drop view V;");
  EXPECT_TRUE(session.ViewNames().empty());
  EXPECT_TRUE(session.world_set().HasRelation("R"));
  auto r = session.Execute("select * from V;");
  EXPECT_FALSE(r.ok());
}

TEST_P(SessionTest, ViewNameCollisions) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view V as select * from R;");
  auto r = session.Execute("create table V (A text);");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  r = session.Execute("create view R as select * from S;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_P(SessionTest, MaxDisplayWorldsTruncates) {
  SessionOptions options = Options();
  options.max_display_worlds = 2;
  Session session(options);
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table I as select A, B, C from R repair by key A;");
  QueryResult r = Exec(session, "select * from I;");
  EXPECT_EQ(r.worlds().size(), 2u);
  EXPECT_TRUE(r.truncated());
}

TEST_P(SessionTest, RequireTableHelper) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  QueryResult single = Exec(session, "select possible A from R;");
  auto table = single.RequireTable();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 3u);

  QueryResult worlds = Exec(session, "select A from R;");
  EXPECT_TRUE(worlds.RequireTable().ok()) << "single world counts as table";
}

// A mutating statement runs on a clone that the session then adopts in
// place: a reference from world_set() keeps observing the live state.
TEST_P(SessionTest, WorldSetReferenceSurvivesStatements) {
  Session session((Options()));
  const worlds::WorldSet& live = session.world_set();
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table I as select A, B, C from R repair by key A;");
  EXPECT_EQ(&live, &session.world_set());
  EXPECT_EQ(live.NumWorlds(), session.world_set().NumWorlds());
  EXPECT_GT(live.NumWorlds(), 1u);
  EXPECT_TRUE(live.HasRelation("I"));
  EXPECT_FALSE(session.Execute("create table I (X integer);").ok());
  Exec(session, "drop table I;");
  EXPECT_FALSE(live.HasRelation("I"));
}

MAYBMS_INSTANTIATE_ENGINES(SessionTest);

// The statement world cap (worlds/world_pipeline.h) is fixed at 2^20.
// 21 two-way keys make 2^21 worlds: one over it.
std::string TwoWayKeys(int keys) {
  std::string script =
      "create table R (K integer, V integer);\ninsert into R values ";
  for (int k = 0; k < keys; ++k) {
    if (k > 0) script += ", ";
    script += "(" + std::to_string(k) + ", 1), (" + std::to_string(k) + ", 2)";
  }
  return script + ";\n";
}

TEST(SessionCapsTest, ExplicitEngineRefusesHugeWorldSets) {
  SessionOptions options;
  options.engine = EngineMode::kExplicit;
  Session session(options);
  ExecScript(session, TwoWayKeys(21));
  auto r = session.Execute("create table I as select * from R repair by key K;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(r.status().message().find(
                "statement world cap of 1048576 worlds exceeded"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(session.world_set().HasRelation("I"));
}

TEST(SessionCapsTest, DecomposedEngineHandlesTheSameInputEasily) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  Session session(options);
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1,1),(1,2),(2,1),(2,2),(3,1),(3,2),(4,1),(4,2);
  )sql");
  QueryResult r = Exec(session, "create table I as select * from R repair by key K;");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  EXPECT_EQ(session.world_set().NumWorlds(), 16u);
}

TEST(SessionCapsTest, DecomposedMergeCapGuardsCorrelation) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  Session session(options);
  ExecScript(session, TwoWayKeys(21));
  ExecScript(session, "create table I as select * from R repair by key K;");
  EXPECT_EQ(session.world_set().NumWorlds(), uint64_t{1} << 21);
  // sum(V) correlates all 21 components: 2^21 worlds, over the cap.
  auto r = session.Execute("select conf, sum(V) from I;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(r.status().message().find(
                "statement world cap of 1048576 worlds exceeded"),
            std::string::npos)
      << r.status().ToString();
}

// possible/certain of a sum or count do not enumerate the 2^21 worlds:
// they add the components' values, far below the world cap.
TEST(SessionCapsTest, ClosedFormAggregatesAnswerAboveTheWorldCap) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  Session session(options);
  ExecScript(session, TwoWayKeys(21));
  ExecScript(session, "create table I as select * from R repair by key K;");
  auto sums = session.Execute("select possible sum(V) from I;");
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  ASSERT_EQ(sums->table().num_rows(), 22u);  // 21 .. 42
  for (size_t i = 0; i < 22; ++i) {
    EXPECT_EQ(sums->table().row(i).value(0).AsInteger(),
              static_cast<int64_t>(21 + i));
  }
  auto count = session.Execute("select certain count(*) from I;");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ExpectRows(count->table(), {"(21)"});
}

// DML on a repaired relation that is not row-local (here: a subquery over
// the target) runs in every world of the relation's components. Over 40
// three-way keys (3^40 worlds) it stops at the world cap before any world
// runs, and leaves the world-set as it was.
TEST(SessionCapsTest, DmlOverTooManyWorldsFailsWithTheCapAndNoEffect) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  Session session(options);
  std::string script =
      "create table R (K integer, V integer);\ninsert into R values ";
  for (int k = 0; k < 40; ++k) {
    for (int v = 0; v < 3; ++v) {
      if (k + v > 0) script += ", ";
      script += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  ExecScript(session, script + ";\n");
  ExecScript(session, "create table I as select * from R repair by key K;");
  auto before = session.world_set().ToSnapshot();
  ASSERT_TRUE(before.ok());
  for (const char* dml :
       {"update I set V = 99 where K in (select K from I where K = 3);",
        "delete from I where K in (select K from I where K = 5);"}) {
    SCOPED_TRACE(dml);
    auto r = session.Execute(dml);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
    EXPECT_NE(r.status().message().find(
                  "statement world cap of 1048576 worlds exceeded"),
              std::string::npos)
        << r.status().ToString();
    auto after = session.world_set().ToSnapshot();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->certain.size(), before->certain.size());
    ASSERT_EQ(after->tables.size(), before->tables.size());
    for (size_t i = 0; i < before->tables.size(); ++i) {
      EXPECT_EQ(after->tables[i], before->tables[i]) << "table " << i;
    }
    ASSERT_EQ(after->components.size(), before->components.size());
    for (size_t i = 0; i < before->components.size(); ++i) {
      EXPECT_EQ(after->components[i].instance, before->components[i].instance)
          << "component " << i;
    }
  }
}

// MAYBMS_POOL_PAGES must be validated like MAYBMS_THREADS
// (base/thread_pool.cc): a malformed value is a configuration error the
// user hears about, never a silent fallback to the default pool size.
class PoolPagesEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("MAYBMS_POOL_PAGES");
    ::unsetenv("MAYBMS_STORAGE");
  }

  /// A paged session picking its pool size from the environment.
  static SessionOptions PagedFromEnv() {
    SessionOptions options;
    options.storage = StorageMode::kPaged;
    options.pool_pages = 0;  // resolve MAYBMS_POOL_PAGES
    return options;
  }
};

TEST_F(PoolPagesEnvTest, MalformedValuesAreInvalidArgument) {
  for (const char* bad : {"abc", "64k", "-1", "0", "", " 64", "64 ",
                          "0x40", "18446744073709551616"}) {
    ASSERT_EQ(::setenv("MAYBMS_POOL_PAGES", bad, 1), 0);
    Session session(PagedFromEnv());
    auto r = session.Execute("create table T (A integer);");
    ASSERT_FALSE(r.ok()) << "MAYBMS_POOL_PAGES=\"" << bad
                         << "\" was silently accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("MAYBMS_POOL_PAGES"),
              std::string::npos)
        << "error should name the variable: " << r.status().ToString();
    // The failure is sticky: every later statement reports it too.
    auto again = session.Execute("select 1;");
    EXPECT_FALSE(again.ok()) << bad;
  }
}

TEST_F(PoolPagesEnvTest, ValidValueSizesThePool) {
  ASSERT_EQ(::setenv("MAYBMS_POOL_PAGES", "16", 1), 0);
  Session session(PagedFromEnv());
  ExecScript(session, "create table T (A integer);"
                      "insert into T values (1);");
  ASSERT_NE(session.paged_store(), nullptr);
  EXPECT_EQ(session.paged_store()->pool()->pool_pages(), 16u);
}

TEST_F(PoolPagesEnvTest, ExplicitOptionIgnoresTheEnvironment) {
  ASSERT_EQ(::setenv("MAYBMS_POOL_PAGES", "garbage", 1), 0);
  SessionOptions options = PagedFromEnv();
  options.pool_pages = 32;
  Session session(options);
  ExecScript(session, "create table T (A integer);");
  ASSERT_NE(session.paged_store(), nullptr);
  EXPECT_EQ(session.paged_store()->pool()->pool_pages(), 32u);
}

}  // namespace
}  // namespace maybms::isql
