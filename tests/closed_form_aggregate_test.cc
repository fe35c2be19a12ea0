// The decomposed engine's closed-form aggregate: possible/certain of
// count(*), count(col) and sum(col) over one uncertain relation answer by
// adding per-component value sets, without enumerating worlds
// (worlds/decomposed_world_set.cc). The explicit engine, which enumerates
// every world, is the oracle: answers must be equal value for value, with
// the same schema. Every statement the closed form leaves to the pipeline
// (an evaluation error, overflow, a REAL column, a support above the
// world cap) must give the explicit engine's answer or error, and answers
// are byte-identical at every thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "base/query_context.h"
#include "isql/session.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "worlds/decomposed_world_set.h"
#include "worlds/explicit_world_set.h"

namespace maybms {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using maybms::testing::ExecScript;
using maybms::testing::ExpectResultsIdentical;
using maybms::testing::ExpectTablesIdentical;

SessionOptions Options(EngineMode engine, size_t threads = 0) {
  SessionOptions options;
  options.engine = engine;
  options.threads = threads;
  return options;
}

// R holds NULLs (key 2 has only NULL values), negative values, a REAL
// column and text groups; BR's values are far apart. Each uncertain
// relation is built in its own pair of sessions, so the explicit engine
// enumerates only that relation's worlds.
const char* kBase = R"sql(
  create table R (K integer, V integer, W integer, G text, X real);
  insert into R values
    (0, 3, 1, 'x', 1.5), (0, 5, 2, 'y', 2.5), (0, NULL, 1, 'z', 0.5),
    (1, 1, 1, 'y', 1.0), (1, 4, 3, 'z', 2.0),
    (2, NULL, 1, 'x', 3.0), (2, NULL, 2, 'y', 1.0),
    (3, 7, 1, 'z', 0.25),
    (4, -2, 1, 'x', 1.0), (4, 6, 1, 'y', 4.0), (4, 0, 2, 'z', 2.0);
  create table BR (K integer, V integer, G text, X real);
  insert into BR values
    (0, 1, 'x', 1.0), (0, 2, 'y', 1.0), (0, NULL, 'z', 1.0),
    (1, 5000000, 'x', 1.0), (1, 0, 'y', 1.0),
    (2, 30000000, 'x', 1.0), (2, NULL, 'y', 1.0),
    (3, -40000000, 'z', 1.0), (3, 7, 'x', 1.0);
)sql";

// I repairs R by key, C chooses by G (several rows per alternative), J
// adds rows by `insert into`, N keeps only the NULL rows, and B is the
// repair of BR.
const char* kRepaired =
    "create table I as select K, V, G, X from R repair by key K weight W;";
const char* kUncertain[][2] = {
    {"I", kRepaired},
    {"C", "create table C as select K, V, G, X from R choice of G;"},
    {"J",
     "create table J as select K, V, G, X from R where K < 3 repair by key K;"
     "insert into J values (9, 10, 'x', 1.0), (9, NULL, 'y', 1.0);"},
    {"N",
     "create table N as select K, V, G, X from R where V is null "
     "repair by key K;"},
    {"B", "create table B as select K, V, G, X from BR repair by key K;"},
};

/// The same script on both engines.
class Engines {
 public:
  explicit Engines(const std::string& script) {
    ExecScript(explicit_, std::string(kBase) + script);
    ExecScript(decomposed_, std::string(kBase) + script);
  }

  void Run(const std::string& script) {
    ExecScript(explicit_, script);
    ExecScript(decomposed_, script);
  }

  /// Runs `sql` on both engines: the same error, or the same answer and
  /// schema. Returns the worlds the decomposed statement charged.
  uint64_t ExpectSame(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto expected = explicit_.Execute(sql);
    uint64_t worlds = 0;
    auto actual = [&]() {
      base::QueryContext ctx{base::GovernanceLimits{}};
      base::QueryContextScope scope(&ctx);
      auto result = decomposed_.Execute(sql);
      worlds = ctx.worlds_charged();
      return result;
    }();
    EXPECT_EQ(expected.ok(), actual.ok())
        << "explicit: " << expected.status().ToString()
        << "\ndecomposed: " << actual.status().ToString();
    if (!expected.ok() || !actual.ok()) {
      EXPECT_EQ(expected.status().ToString(), actual.status().ToString());
      return worlds;
    }
    ExpectResultsIdentical(*expected, *actual, sql);
    if (expected->kind() == QueryResult::Kind::kTable) {
      EXPECT_EQ(expected->table().schema().ToString(),
                actual->table().schema().ToString());
    }
    return worlds;
  }

 private:
  Session explicit_{Options(EngineMode::kExplicit)};
  Session decomposed_{Options(EngineMode::kDecomposed)};
};

TEST(ClosedFormAggregateTest, MatchesTheExplicitEngine) {
  const char* kQuantifiers[] = {"possible", "certain"};
  const char* kAggregates[] = {"count(*)", "count(V)", "sum(V)"};
  const char* kWheres[] = {"",
                           " where V > 2",
                           " where K <> 1",
                           " where V is null",
                           " where G = 'x'",
                           " where V between 0 and 4",
                           " where X > 1.0 or V < 0",
                           " where K > 100"};
  for (const auto& [rel, script] : kUncertain) {
    Engines engines(script);
    for (const char* quantifier : kQuantifiers) {
      for (const char* aggregate : kAggregates) {
        for (const char* where : kWheres) {
          const std::string sql = std::string("select ") + quantifier + " " +
                                  aggregate + " from " + rel + where + ";";
          // No world is decoded: the closed form answered.
          EXPECT_EQ(engines.ExpectSame(sql), 0u) << sql;
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(ClosedFormAggregateTest, QualifiedAliasesAndOutputNames) {
  Engines engines(std::string(kRepaired) + kUncertain[4][1]);
  for (const char* sql :
       {"select possible sum(i2.V) from I i2 where i2.K <> 0;",
        "select certain count(i2.V) as n from I i2 where i2.V >= 0;",
        "select possible count(*) as rows_per_world from I;",
        "select possible sum(V) as total from B where K >= 1;"}) {
    EXPECT_EQ(engines.ExpectSame(sql), 0u) << sql;
  }
}

TEST(ClosedFormAggregateTest, CreateTableAsMaterializesTheSameRelation) {
  Engines engines(kRepaired);
  engines.Run(
      "create table S as select possible sum(V) from I where V > 0;"
      "create table T as select certain count(*) as n from I;");
  for (const char* sql : {"select possible * from S;",
                          "select certain * from S;",
                          "select possible * from T;"}) {
    engines.ExpectSame(sql);
  }
}

// Each case the closed form does not take runs through the pipeline (it
// decodes worlds) and answers or fails exactly as the explicit engine.
TEST(ClosedFormAggregateTest, FallbacksMatchTheExplicitEngine) {
  Engines engines(std::string(kRepaired) + kUncertain[1][1]);
  // A WHERE that fails in some alternatives only: the first failing
  // world's error, as the pipeline reports it.
  for (const char* sql :
       {"select possible sum(V) from I where cast(G as integer) > 0;",
        "select certain count(*) from I where 10 / (V - 5) > 0;",
        "select possible count(V) from C where 1 / (K - 3) > 0;"}) {
    engines.ExpectSame(sql);
  }
  // Not an INTEGER column: the pipeline sums REALs.
  EXPECT_GT(engines.ExpectSame("select possible sum(X) from I;"), 0u);
  // Outside the class altogether: still the explicit engine's answers.
  for (const char* sql :
       {"select possible sum(distinct V) from I;",
        "select possible sum(V + 1) from I;", "select possible min(V) from I;",
        "select possible sum(V) from I group by K;",
        "select possible count(*) from I where V > (select min(V) from C);"}) {
    engines.ExpectSame(sql);
  }
  // int64 overflow in some worlds; and integers beyond 2^53, which are
  // told apart exactly and answer in closed form.
  Engines wide(R"sql(
    create table O (K integer, V integer);
    insert into O values (0, 9223372036854775807), (0, 0), (1, 1), (1, 2);
    create table OI as select K, V from O repair by key K;
    create table E (K integer, V integer);
    insert into E values (0, 9007199254740992), (0, 9007199254740993),
                         (1, 0), (1, 2);
    create table EI as select K, V from E repair by key K;
  )sql");
  for (const char* sql :
       {"select possible sum(V) from OI;", "select certain sum(V) from OI;"}) {
    EXPECT_GT(wide.ExpectSame(sql), 0u) << sql;
  }
  for (const char* sql :
       {"select possible sum(V) from EI;", "select certain sum(V) from EI;"}) {
    EXPECT_EQ(wide.ExpectSame(sql), 0u) << sql;
  }
}

// Values far apart: 40 keys of {0, 10^7} have 2^40 worlds but 41 sums.
TEST(ClosedFormAggregateTest, WideValuesAnswerAboveTheWorldCap) {
  std::string script =
      "create table R (K integer, V integer); insert into R values ";
  for (int k = 0; k < 40; ++k) {
    script += std::string(k > 0 ? ", " : "") + "(" + std::to_string(k) +
              ", 0), (" + std::to_string(k) + ", 10000000)";
  }
  Session session(Options(EngineMode::kDecomposed));
  ExecScript(session, script + "; create table I as select * from R "
                               "repair by key K;");
  auto sums = session.Execute("select possible sum(V) from I;");
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  ASSERT_EQ(sums->table().num_rows(), 41u);
  for (size_t i = 0; i < 41; ++i) {
    EXPECT_EQ(sums->table().row(i).value(0).AsInteger(),
              static_cast<int64_t>(i) * 10000000);
  }
}

// 2,000 keys x 3 rows with NULLs: the answers are byte-identical at
// threads 1, 2, 4 and 8.
TEST(ClosedFormAggregateThreadsTest, AnswersAreThreadCountInvariant) {
  std::string script =
      "create table R (K integer, V integer, W integer); insert into R values ";
  for (int k = 0; k < 2000; ++k) {
    for (int j = 0; j < 3; ++j) {
      if (k > 0 || j > 0) script += ", ";
      const int v = (k * 7 + j * 3) % 50;
      script += "(" + std::to_string(k) + ", " +
                (v % 11 == 0 ? std::string("NULL") : std::to_string(v - 20)) +
                ", " + std::to_string(1 + (k + j) % 4) + ")";
    }
  }
  script += "; create table I as select K, V from R repair by key K weight W;";
  const char* kProbes[] = {
      "select possible sum(V) from I;",
      "select possible sum(V) from I where K between 990 and 1009;",
      "select certain count(V) from I where V > 100;",
      "select possible count(V) from I where V < 0;",
      "select certain count(*) from I;",
  };
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    sessions.push_back(
        std::make_unique<Session>(Options(EngineMode::kDecomposed, threads)));
    ExecScript(*sessions.back(), script);
  }
  for (const char* probe : kProbes) {
    auto baseline = sessions[0]->Execute(probe);
    ASSERT_TRUE(baseline.ok()) << probe << "\n"
                               << baseline.status().ToString();
    EXPECT_GT(baseline->table().num_rows(), 0u) << probe;
    for (size_t t = 1; t < sessions.size(); ++t) {
      auto result = sessions[t]->Execute(probe);
      ASSERT_TRUE(result.ok()) << probe << "\n" << result.status().ToString();
      ExpectTablesIdentical(baseline->table(), result->table(),
                            std::string(probe) + " slot " + std::to_string(t));
    }
  }
}

std::unique_ptr<sql::SelectStatement> ParseSelect(const std::string& text) {
  auto stmt = sql::Parser::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::unique_ptr<sql::SelectStatement>(
      static_cast<sql::SelectStatement*>(stmt->release()));
}

// World-sets the session never builds: the relation has rows in the
// certain core as well as in the components, alternatives carry several
// rows or none. Each is restored into the decomposed engine, and its
// worlds, enumerated, into the explicit engine.
TEST(ClosedFormAggregateSnapshotTest, CoreRowsAndRaggedAlternatives) {
  std::mt19937 rng(20);
  auto value = [&]() {
    return rng() % 4 == 0 ? Value::Null()
                          : Value::Integer(static_cast<int64_t>(rng() % 21) - 10);
  };
  const Schema schema({Column("K", DataType::kInteger),
                       Column("V", DataType::kInteger)});
  const char* kProbes[] = {"select possible sum(V) from r",
                           "select certain sum(V) from r",
                           "select possible count(V) from r where V > 0",
                           "select certain count(*) from r where K < 2",
                           "select possible count(*) from r where V is null"};
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    storage::DurableSnapshot snapshot;
    snapshot.engine = "decomposed";
    Table core(schema);
    const int core_rows = static_cast<int>(rng() % 3);
    for (int i = 0; i < core_rows; ++i) {
      core.AppendUnchecked(Tuple({Value::Integer(9), value()}));
    }
    snapshot.tables.push_back(std::make_shared<const Table>(std::move(core)));
    snapshot.certain.push_back({"r", 0});
    const int components = 1 + static_cast<int>(rng() % 4);
    for (int c = 0; c < components; ++c) {
      storage::DurableSnapshot::ComponentRef component;
      const int alternatives = 1 + static_cast<int>(rng() % 3);
      for (int a = 0; a < alternatives; ++a) {
        storage::DurableSnapshot::AlternativeRef alt;
        alt.probability = 1.0 / alternatives;
        const int rows = static_cast<int>(rng() % 3);  // 0: no rows of r
        if (rows > 0) {
          std::vector<Tuple> tuples;
          for (int i = 0; i < rows; ++i) {
            tuples.push_back(Tuple({Value::Integer(c), value()}));
          }
          alt.contributions.emplace_back("r", std::move(tuples));
        }
        component.alternatives.push_back(std::move(alt));
      }
      snapshot.components.push_back(std::move(component));
    }
    worlds::DecomposedWorldSet decomposed(worlds::kMaxStatementWorlds, 2);
    MAYBMS_ASSERT_OK(decomposed.FromSnapshot(snapshot));
    bool truncated = false;
    auto worlds = decomposed.MaterializeWorlds(1000, &truncated);
    ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
    ASSERT_FALSE(truncated);
    storage::DurableSnapshot enumerated;
    enumerated.engine = "explicit";
    for (const worlds::World& world : *worlds) {
      auto table = world.db.GetRelationHandle("r");
      ASSERT_TRUE(table.ok());
      enumerated.worlds.push_back(
          {world.probability, {{"r", enumerated.tables.size()}}});
      enumerated.tables.push_back(*table);
    }
    worlds::ExplicitWorldSet explicit_set(worlds::kMaxStatementWorlds, 2);
    MAYBMS_ASSERT_OK(explicit_set.FromSnapshot(enumerated));
    for (const char* probe : kProbes) {
      auto stmt = ParseSelect(probe);
      auto expected = explicit_set.EvaluateSelect(*stmt, 0);
      auto actual = decomposed.EvaluateSelect(*stmt, 0);
      ASSERT_TRUE(expected.ok()) << probe << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << probe << actual.status().ToString();
      ASSERT_TRUE(expected->combined.has_value() &&
                  actual->combined.has_value());
      ExpectTablesIdentical(*expected->combined, *actual->combined, probe);
    }
  }
}

// The support, not the world count, meets the world cap: 1,000 worlds
// whose sums take 28 values answer under a cap of 100, while sums that
// take 1,000 values leave the statement to the pipeline, which stops at
// the cap.
TEST(ClosedFormAggregateSnapshotTest, SupportAboveTheWorldCapFallsBack) {
  worlds::DecomposedWorldSet ws(/*max_worlds=*/100, /*threads=*/1);
  Table r(Schema({Column("K", DataType::kInteger),
                  Column("V", DataType::kInteger),
                  Column("S", DataType::kInteger)}));
  for (int k = 0; k < 3; ++k) {
    const int scale = k == 0 ? 1 : (k == 1 ? 10 : 100);
    for (int v = 0; v < 10; ++v) {
      r.AppendUnchecked(Tuple(
          {Value::Integer(k), Value::Integer(v), Value::Integer(v * scale)}));
    }
  }
  MAYBMS_ASSERT_OK(ws.CreateBaseTable("r", r));
  MAYBMS_ASSERT_OK(ws.MaterializeSelect(
      "i", *ParseSelect("select * from r repair by key K")));
  ASSERT_EQ(ws.NumWorlds(), 1000u);
  auto narrow =
      ws.EvaluateSelect(*ParseSelect("select possible sum(V) from i"), 16);
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  EXPECT_EQ(narrow->combined->num_rows(), 28u);  // 0 .. 27
  auto wide =
      ws.EvaluateSelect(*ParseSelect("select possible sum(S) from i"), 16);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(wide.status().message().find(
                "statement world cap of 100 worlds exceeded"),
            std::string::npos)
      << wide.status().ToString();
}

// A wide support at the cap meets a component with many alternatives.
// Ten two-way keys of {0, 1000 * 2^k} give 1,024 sums, at a cap of 1,024,
// and key 10's 1,000 alternatives would make the sumset 1,024,000
// values. The support stops growing as it passes the cap, and the
// statement ends with the pipeline's cap error.
TEST(ClosedFormAggregateSnapshotTest, WideSupportMeetingManyAlternatives) {
  worlds::DecomposedWorldSet ws(/*max_worlds=*/1024, /*threads=*/2);
  Table r(Schema({Column("K", DataType::kInteger),
                  Column("V", DataType::kInteger)}));
  for (int k = 0; k < 10; ++k) {
    r.AppendUnchecked(Tuple({Value::Integer(k), Value::Integer(0)}));
    r.AppendUnchecked(Tuple({Value::Integer(k), Value::Integer(1000 << k)}));
  }
  for (int j = 0; j < 1000; ++j) {
    r.AppendUnchecked(Tuple({Value::Integer(10), Value::Integer(j)}));
  }
  MAYBMS_ASSERT_OK(ws.CreateBaseTable("r", r));
  MAYBMS_ASSERT_OK(ws.MaterializeSelect(
      "i", *ParseSelect("select * from r repair by key K")));
  ASSERT_EQ(ws.NumWorlds(), 1024u * 1000u);
  auto at_cap = ws.EvaluateSelect(
      *ParseSelect("select possible sum(V) from i where K < 10"), 16);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  ASSERT_EQ(at_cap->combined->num_rows(), 1024u);
  EXPECT_EQ(at_cap->combined->row(1023).value(0).AsInteger(), 1000 * 1023);
  auto wide =
      ws.EvaluateSelect(*ParseSelect("select possible sum(V) from i"), 16);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(wide.status().message().find(
                "statement world cap of 1024 worlds exceeded"),
            std::string::npos)
      << wide.status().ToString();
}

// A part can take NULL out of the support: key 0 sums to NULL or 0 and
// key 1 to 5, so the support goes {NULL} -> {NULL, 0} -> {5}. The memory
// budget is charged the support's largest size, once.
TEST(ClosedFormAggregateTest, SupportThatLosesNullIsChargedItsPeak) {
  Session session(Options(EngineMode::kDecomposed));
  ExecScript(session, R"sql(
    create table R (K integer, V integer, G text);
    insert into R values (0, NULL, 'a'), (0, 0, 'b'), (1, 5, 'a'),
                         (1, 5, 'b');
    create table I as select K, V, G from R repair by key K;
  )sql");
  base::GovernanceLimits limits;
  limits.mem_budget_bytes = 1 << 20;
  base::QueryContext ctx{limits};
  base::QueryContextScope scope(&ctx);
  auto sums = session.Execute("select possible sum(V) from I;");
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  ASSERT_EQ(sums->table().num_rows(), 1u);
  EXPECT_EQ(sums->table().row(0).value(0).AsInteger(), 5);
  EXPECT_EQ(ctx.worlds_charged(), 0u);
  EXPECT_EQ(ctx.bytes_charged(), base::EstimateTableBytes(2, 1));
}

}  // namespace
}  // namespace maybms
