// Row-local writes on the decomposition (DecomposedWorldSet::
// ApplyRowLocalDml): an UPDATE or DELETE whose WHERE and SET read only the
// target row, and an INSERT ... VALUES into a relation without
// constraints, run once on the certain core and once per alternative. No
// component is merged and no world is enumerated.
//  * Two oracles: the explicit engine, which runs the statement in every
//    stored world, and the decomposed engine forced through the per-world
//    pass by a twin of the statement that adds an always-true subquery
//    (which takes it out of the class).
//  * Components keep their number, and only the touched ones get a new
//    instance; an untouched key's conf keeps its bits.
//  * Statements that fail somewhere, or fall outside the class, take the
//    per-world pass and report its error with no effect.
//  * Paged sessions reopen to the same answers.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/query_context.h"
#include "isql/session.h"
#include "tests/test_util.h"
#include "worlds/decomposed_world_set.h"

namespace maybms {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using isql::StorageMode;
using maybms::testing::ExecScript;
using maybms::testing::ExpectSameDistribution;
using maybms::testing::ExpectTablesIdentical;
using maybms::testing::WorldDistribution;

SessionOptions Options(EngineMode engine, size_t threads = 0) {
  SessionOptions options;
  options.engine = engine;
  options.threads = threads;
  options.max_display_worlds = 1 << 14;
  return options;
}

// R holds a V = 0 on one alternative of key 1 (a division by zero there
// only), NULLs, and a G for `choice of`. One is the certain one-row table
// the forced twins' subquery reads.
const char* kScript = R"sql(
  create table R (K integer, V integer, W integer, G integer);
  insert into R values
    (0, 3, 1, 0), (0, 5, 2, 1), (0, NULL, 1, 2),
    (1, 0, 1, 0), (1, 4, 3, 1), (1, 6, 1, 2),
    (2, NULL, 1, 0), (2, 2, 2, 1),
    (3, 7, 1, 2);
  create table One (X integer);
  insert into One values (1);
  create table I as select K, V from R repair by key K weight W;
  create table C as select K, V from R choice of G;
)sql";

/// The statements that read every relation the tests write.
std::vector<std::string> Probes() {
  std::vector<std::string> probes;
  for (const char* rel : {"I", "C"}) {
    const std::string r = rel;
    probes.push_back("select possible K, V from " + r + ";");
    probes.push_back("select certain K, V from " + r + ";");
    probes.push_back("select conf, K, V from " + r + ";");
    probes.push_back("select possible sum(V) from " + r + ";");
    probes.push_back("select conf, count(*) from " + r + " where V > 2;");
    probes.push_back("select K, V from " + r + ";");
  }
  return probes;
}

/// `a` and `b` answer `sql` alike: the same status, the same discrete
/// values, and reals (confidences) within `tolerance`.
void ExpectSameAnswer(Session& a, Session& b, const std::string& sql,
                      double tolerance) {
  SCOPED_TRACE(sql);
  auto x = a.Execute(sql);
  auto y = b.Execute(sql);
  ASSERT_EQ(x.ok(), y.ok()) << x.status().ToString() << " vs "
                            << y.status().ToString();
  if (!x.ok()) {
    EXPECT_EQ(x.status().ToString(), y.status().ToString());
    return;
  }
  ASSERT_EQ(x->kind(), y->kind());
  if (x->kind() == QueryResult::Kind::kWorlds) {
    ExpectSameDistribution(WorldDistribution(x->worlds()),
                           WorldDistribution(y->worlds()), tolerance);
  } else if (x->kind() == QueryResult::Kind::kTable) {
    ExpectTablesIdentical(x->table(), y->table(), sql, tolerance);
  }
}

const worlds::DecomposedWorldSet& Decomposed(const Session& session) {
  return dynamic_cast<const worlds::DecomposedWorldSet&>(session.world_set());
}

/// `stmt` with an always-true subquery over the certain One: the same
/// write, outside the row-local class.
std::string Forced(const std::string& stmt) {
  const std::string body = stmt.substr(0, stmt.size() - 1);  // drop ';'
  if (body.rfind("insert", 0) == 0) {
    const size_t values = body.find(" values ");
    std::string row = body.substr(values + 8);
    return body.substr(0, values) + " select " +
           row.substr(1, row.size() - 2) + " from One;";
  }
  const char* kExists = "exists (select * from One)";
  const size_t where = body.find(" where ");
  if (where == std::string::npos) return body + " where " + kExists + ";";
  return body.substr(0, where) + " where (" + body.substr(where + 7) +
         ") and " + kExists + ";";
}

/// The script on three sessions: decomposed (local writes), the explicit
/// oracle, and decomposed with every write forced through the pass.
class Twins {
 public:
  explicit Twins(size_t threads = 0)
      : local_(Options(EngineMode::kDecomposed, threads)),
        forced_(Options(EngineMode::kDecomposed, threads)) {
    ExecScript(local_, kScript);
    ExecScript(explicit_, kScript);
    ExecScript(forced_, kScript);
  }

  /// Runs `stmt` everywhere (its forced twin on forced_): the same status
  /// on all three, then the same answers to every probe. Returns the
  /// local statement's status.
  Status Write(const std::string& stmt) {
    SCOPED_TRACE(stmt);
    auto local = local_.Execute(stmt);
    auto oracle = explicit_.Execute(stmt);
    auto forced = forced_.Execute(Forced(stmt));
    EXPECT_EQ(local.ok(), oracle.ok()) << local.status().ToString() << " vs "
                                       << oracle.status().ToString();
    EXPECT_EQ(local.status().ToString(), oracle.status().ToString());
    EXPECT_EQ(local.status().ToString(), forced.status().ToString());
    for (const std::string& probe : Probes()) {
      ExpectSameAnswer(local_, explicit_, probe, 1e-12);
      ExpectSameAnswer(local_, forced_, probe, 1e-12);
    }
    return local.status();
  }

  Session& local() { return local_; }

 private:
  Session local_;
  Session explicit_{Options(EngineMode::kExplicit)};
  Session forced_;
};

Table Answer(Session& session, const std::string& sql) {
  auto result = session.Execute(sql);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  return result.ok() ? result->table() : Table();
}

TEST(LocalDmlTest, ForcedTwinLeavesTheClass) {
  EXPECT_EQ(Forced("update I set V = 1 where K = 2;"),
            "update I set V = 1 where (K = 2) and exists (select * from "
            "One);");
  EXPECT_EQ(Forced("delete from I;"),
            "delete from I where exists (select * from One);");
  EXPECT_EQ(Forced("insert into I values (9, 9);"),
            "insert into I select 9, 9 from One;");
}

TEST(LocalDmlTest, KeyPredicateUpdatesAndDeletesMatchBothOracles) {
  Twins twins;
  const size_t components = Decomposed(twins.local()).num_components();
  for (const char* stmt :
       {"update I set V = V + 10 where K = 1;", "delete from I where K = 2;",
        "update C set V = V * 2 where K = 0;", "delete from C where V > 5;",
        "update I set V = NULL where V = 5;"}) {
    MAYBMS_EXPECT_OK(twins.Write(stmt));
    EXPECT_EQ(Decomposed(twins.local()).num_components(), components)
        << stmt;
  }
}

TEST(LocalDmlTest, WherelessUpdateAndInsertStayDecomposed) {
  Twins twins;
  const size_t components = Decomposed(twins.local()).num_components();
  for (const char* stmt :
       {"update I set V = V * 2;", "insert into I values (9, 9);",
        "insert into I values (1, NULL);",
        "insert into C values (7, 7);", "update C set V = K;"}) {
    MAYBMS_EXPECT_OK(twins.Write(stmt));
    EXPECT_EQ(Decomposed(twins.local()).num_components(), components)
        << stmt;
  }
  // The inserted rows are certain, so their conf is exactly 1.
  const Table conf = Answer(twins.local(), "select conf, K, V from I where K = 9;");
  ASSERT_EQ(conf.num_rows(), 1u);
  EXPECT_EQ(conf.row(0).value(2).AsReal(), 1.0);
}

TEST(LocalDmlTest, UntouchedComponentsKeepTheirInstancesAndConfBits) {
  Twins twins;
  const Table before = Answer(twins.local(), "select conf, K, V from I;");
  const std::vector<worlds::ComponentHandle> components =
      Decomposed(twins.local()).components();
  MAYBMS_EXPECT_OK(twins.Write("update I set V = 99 where K = 3;"));
  const std::vector<worlds::ComponentHandle>& after =
      Decomposed(twins.local()).components();
  ASSERT_EQ(after.size(), components.size());
  size_t changed = 0;
  for (size_t i = 0; i < after.size(); ++i) changed += after[i] != components[i];
  EXPECT_EQ(changed, 1u);
  const Table untouched =
      Answer(twins.local(), "select conf, K, V from I where K <> 3;");
  size_t compared = 0;
  for (const Tuple& row : untouched.rows()) {
    for (const Tuple& old : before.rows()) {
      if (old.value(0).ToString() != row.value(0).ToString() ||
          old.value(1).ToString() != row.value(1).ToString()) {
        continue;
      }
      EXPECT_EQ(old.value(2).AsReal(), row.value(2).AsReal()) << row.ToString();
      ++compared;
    }
  }
  EXPECT_EQ(compared, untouched.num_rows());
}

TEST(LocalDmlTest, UpdateMatchingNothingChangesNothing) {
  Twins twins;
  const std::vector<worlds::ComponentHandle> components =
      Decomposed(twins.local()).components();
  auto core = Decomposed(twins.local()).certain_part().GetRelationHandle("i");
  ASSERT_TRUE(core.ok());
  MAYBMS_EXPECT_OK(twins.Write("update I set V = V + 1 where K = 999;"));
  MAYBMS_EXPECT_OK(twins.Write("delete from C where V = 1000;"));
  EXPECT_EQ(Decomposed(twins.local()).components(), components);
  auto after = Decomposed(twins.local()).certain_part().GetRelationHandle("i");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *core);
}

TEST(LocalDmlTest, DeleteThatEmptiesAnAlternativeKeepsItsWorld) {
  Twins twins;
  const uint64_t worlds = twins.local().world_set().NumWorlds();
  const size_t contributing = Decomposed(twins.local()).ComponentsOf("i").size();
  // Key 3 has one row: deleting it empties its only alternative, and its
  // component no longer contributes to I.
  MAYBMS_EXPECT_OK(twins.Write("delete from I where K = 3 or V = 4;"));
  EXPECT_EQ(twins.local().world_set().NumWorlds(), worlds);
  EXPECT_EQ(Decomposed(twins.local()).ComponentsOf("i").size(),
            contributing - 1);
  // Emptying a relation's every alternative drops it from the index.
  MAYBMS_EXPECT_OK(twins.Write("delete from C;"));
  EXPECT_TRUE(Decomposed(twins.local()).ComponentsOf("c").empty());
}

// Statements that fail in some world, or that the class excludes, take the
// per-world pass: the first failing world's error, and no effect.
TEST(LocalDmlTest, FailuresAndOutOfClassWritesTakeThePass) {
  Twins twins;
  const auto snapshot = twins.local().world_set().ToSnapshot();
  ASSERT_TRUE(snapshot.ok());
  for (const char* stmt :
       {"update I set V = 1 where 10 / V > 1;",          // WHERE: 10 / 0
        "update I set V = 12 / (V - 4) where K = 1;",     // SET on a match
        "delete from C where 6 / V = 1 and K = 1;",
        "update I set V = 'x' where K = 0;"}) {
    Status status = twins.Write(stmt);
    EXPECT_FALSE(status.ok()) << stmt;
    const auto after = twins.local().world_set().ToSnapshot();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->tables, snapshot->tables) << stmt;
    ASSERT_EQ(after->components.size(), snapshot->components.size());
    for (size_t i = 0; i < after->components.size(); ++i) {
      EXPECT_EQ(after->components[i].instance, snapshot->components[i].instance);
    }
  }
  // A subquery is outside the class: the pass merges I's components.
  const size_t components = Decomposed(twins.local()).num_components();
  MAYBMS_EXPECT_OK(
      twins.Write("update I set V = 0 where K in (select X from One);"));
  EXPECT_LT(Decomposed(twins.local()).num_components(), components);
}

// A relation with a key constraint that became uncertain: writes to the
// constrained column (and inserts, which the key constrains) take the
// pass, writes to other columns stay local.
TEST(LocalDmlTest, ConstraintColumnsTakeThePass) {
  const std::string setup =
      "create table P (K integer primary key, V integer);"
      "insert into P select K, V from I where K = 1;";
  Session local(Options(EngineMode::kDecomposed));
  Session oracle(Options(EngineMode::kExplicit));
  for (Session* s : {&local, &oracle}) {
    ExecScript(*s, kScript);
    ExecScript(*s, setup);
  }
  const size_t components = Decomposed(local).num_components();
  auto run = [&](const std::string& stmt) {
    SCOPED_TRACE(stmt);
    auto x = local.Execute(stmt);
    auto y = oracle.Execute(stmt);
    EXPECT_EQ(x.status().ToString(), y.status().ToString());
    for (const char* probe :
         {"select possible K, V from P;", "select conf, K, V from P;",
          "select K, V from P;"}) {
      ExpectSameAnswer(local, oracle, probe, 1e-12);
    }
  };
  run("update P set V = V + 1;");
  EXPECT_EQ(Decomposed(local).num_components(), components);
  run("update P set K = 5 where V > 1;");
  run("insert into P values (1, 0);");  // duplicate key in every world
  run("insert into P values (8, 0);");
}

// ROADMAP item 2: on 40 three-way keys (3^40 worlds) a single-key update
// and delete succeed without enumerating, and the same statements on an
// 8-key twin match the explicit engine.
TEST(LocalDmlTest, WideRepairWritesSucceedAndMatchAnEightKeyTwin) {
  const auto script = [](int keys) {
    std::string sql = "create table R (K integer, V integer);"
                      "insert into R values ";
    for (int k = 0; k < keys; ++k) {
      for (int v = 0; v < 3; ++v) {
        if (k + v > 0) sql += ", ";
        sql += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
      }
    }
    return sql + "; create table I as select * from R repair by key K;";
  };
  const char* kWrites[] = {"update I set V = 99 where K = 3;",
                           "delete from I where K = 5;"};
  Session wide(Options(EngineMode::kDecomposed));
  ExecScript(wide, script(40));
  const Table before = Answer(wide, "select conf, K, V from I where K = 1;");
  for (const char* stmt : kWrites) {
    base::GovernanceLimits limits;
    limits.max_worlds = 1;
    base::QueryContext ctx{limits};
    base::QueryContextScope scope(&ctx);
    auto r = wide.Execute(stmt);
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
    EXPECT_EQ(ctx.worlds_charged(), 0u);
  }
  EXPECT_EQ(Decomposed(wide).num_components(), 40u);
  const Table after = Answer(wide, "select conf, K, V from I where K = 1;");
  ExpectTablesIdentical(before, after, "untouched key 1");
  maybms::testing::ExpectRows(Answer(wide, "select conf, K, V from I where K "
                                           "between 3 and 5;"),
                              {"(3, 99, 1)", "(4, 0, 0.333333333333)",
                               "(4, 1, 0.333333333333)",
                               "(4, 2, 0.333333333333)"});

  Session local(Options(EngineMode::kDecomposed));
  Session oracle(Options(EngineMode::kExplicit));
  for (Session* s : {&local, &oracle}) {
    ExecScript(*s, script(8));
    for (const char* stmt : kWrites) ExecScript(*s, stmt);
  }
  for (const char* probe :
       {"select possible K, V from I;", "select conf, K, V from I;",
        "select possible sum(V) from I;", "select K, V from I;"}) {
    ExpectSameAnswer(local, oracle, probe, 1e-12);
  }
}

TEST(LocalDmlTest, TwelveKeySingleKeyUpdateIsFast) {
  Session session(Options(EngineMode::kDecomposed));
  std::string sql = "create table R (K integer, V integer); insert into R "
                    "values ";
  for (int k = 0; k < 12; ++k) {
    for (int v = 0; v < 3; ++v) {
      if (k + v > 0) sql += ", ";
      sql += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  ExecScript(session, sql + "; create table I as select * from R repair by "
                            "key K;");
  const auto start = std::chrono::steady_clock::now();
  ExecScript(session, "update I set V = V + 1 where K = 3;");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Milliseconds; enumerating the 531,441 worlds took seconds.
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  EXPECT_EQ(Decomposed(session).num_components(), 12u);
}

// The pass splits alternatives across pool tasks: every thread count
// gives the same world-set, byte for byte.
TEST(LocalDmlTest, ThreadCountsAgree) {
  std::vector<std::string> answers;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    Session session(Options(EngineMode::kDecomposed, threads));
    std::string sql = "create table R (K integer, V integer, W integer);"
                      "insert into R values ";
    for (int k = 0; k < 500; ++k) {
      for (int v = 0; v < 3; ++v) {
        if (k + v > 0) sql += ", ";
        sql += "(" + std::to_string(k) + ", " + std::to_string(k * 3 + v) +
               ", " + std::to_string(v + 1) + ")";
      }
    }
    ExecScript(session, sql + "; create table I as select K, V from R "
                              "repair by key K weight W;");
    ExecScript(session, "update I set V = V + 1 where V % 4 = 1;"
                        "delete from I where V % 7 = 0;");
    const Table conf = Answer(session, "select conf, K, V from I;");
    answers.push_back(conf.ToString());
    EXPECT_EQ(Decomposed(session).num_components(), 500u);
  }
  for (const std::string& answer : answers) EXPECT_EQ(answer, answers[0]);
}

// Paged sessions: local writes commit only the touched components, and a
// reopened store answers every probe exactly as the live session did.
TEST(LocalDmlTest, PagedReopenAnswersAlike) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("maybms_local_dml_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  SessionOptions options = Options(EngineMode::kDecomposed);
  options.storage = StorageMode::kPaged;
  options.storage_dir = dir.string();
  std::vector<std::string> live;
  {
    Session session(options);
    ExecScript(session, kScript);
    ExecScript(session,
               "update I set V = V + 10 where K = 1;"
               "delete from C where V > 5;"
               "insert into I values (9, 9);"
               "delete from I where K = 3;");
    for (const std::string& probe : Probes()) {
      auto r = session.Execute(probe);
      ASSERT_TRUE(r.ok()) << probe;
      live.push_back(r->kind() == QueryResult::Kind::kTable
                         ? r->table().ToString()
                         : std::to_string(r->worlds().size()));
    }
  }
  {
    Session reopened(options);
    const std::vector<std::string> probes = Probes();
    for (size_t i = 0; i < probes.size(); ++i) {
      auto r = reopened.Execute(probes[i]);
      ASSERT_TRUE(r.ok()) << probes[i];
      EXPECT_EQ(r->kind() == QueryResult::Kind::kTable
                    ? r->table().ToString()
                    : std::to_string(r->worlds().size()),
                live[i])
          << probes[i];
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace maybms
