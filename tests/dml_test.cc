// Tests for INSERT/UPDATE/DELETE execution and constraint checking within
// a single world, plus the all-worlds-or-nothing semantics at the
// world-set level (paper §2: an insert that violates a constraint in some
// world is discarded in all worlds).

#include "engine/dml.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/string_util.h"

#include "sql/parser.h"
#include "tests/test_util.h"

namespace maybms::engine {
namespace {

using isql::QueryResult;
using isql::Session;
using maybms::testing::EngineTest;
using maybms::testing::Exec;
using maybms::testing::ExecScript;
using maybms::testing::ExpectRows;
using maybms::testing::I;
using maybms::testing::N;
using maybms::testing::Row;
using maybms::testing::T;
using maybms::testing::WorldDistribution;

Table PeopleTable() {
  Schema schema({Column("Id", DataType::kInteger),
                 Column("Name", DataType::kText)});
  Table t(schema);
  t.AppendUnchecked(Row({I(1), T("ann")}));
  t.AppendUnchecked(Row({I(2), T("bob")}));
  return t;
}

template <typename StatementT>
std::unique_ptr<StatementT> Parse(const std::string& text) {
  auto stmt = sql::Parser::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::unique_ptr<StatementT>(
      static_cast<StatementT*>(stmt->release()));
}

TEST(ConstraintCheckTest, PrimaryKeyDetectsDuplicatesAndNulls) {
  Table t = PeopleTable();
  std::vector<Constraint> pk = {Constraint{ConstraintKind::kPrimaryKey, {"Id"}}};
  MAYBMS_EXPECT_OK(CheckTableConstraints(t, pk));

  t.AppendUnchecked(Row({I(1), T("carl")}));
  EXPECT_EQ(CheckTableConstraints(t, pk).code(),
            StatusCode::kConstraintViolation);

  Table t2 = PeopleTable();
  t2.AppendUnchecked(Row({N(), T("carl")}));
  EXPECT_EQ(CheckTableConstraints(t2, pk).code(),
            StatusCode::kConstraintViolation)
      << "PRIMARY KEY implies NOT NULL";
}

TEST(ConstraintCheckTest, UniqueAllowsNullsButNotDuplicates) {
  Table t = PeopleTable();
  std::vector<Constraint> uq = {Constraint{ConstraintKind::kUnique, {"Name"}}};
  MAYBMS_EXPECT_OK(CheckTableConstraints(t, uq));
  t.AppendUnchecked(Row({I(3), T("ann")}));
  EXPECT_EQ(CheckTableConstraints(t, uq).code(),
            StatusCode::kConstraintViolation);
}

TEST(ConstraintCheckTest, CompositeKey) {
  Table t = PeopleTable();
  std::vector<Constraint> pk = {
      Constraint{ConstraintKind::kPrimaryKey, {"Id", "Name"}}};
  t.AppendUnchecked(Row({I(1), T("bob")}));  // distinct composite
  MAYBMS_EXPECT_OK(CheckTableConstraints(t, pk));
  t.AppendUnchecked(Row({I(1), T("ann")}));
  EXPECT_EQ(CheckTableConstraints(t, pk).code(),
            StatusCode::kConstraintViolation);
}

// ---------------------------------------------------------------------------
// The touched-rows check against the full-table oracle. INSERT checks only
// its appended rows (against each other and the existing keys); UPDATE
// skips the check when no assignment writes a constrained column. Both
// must report exactly what the full-table scan below reports.
// ---------------------------------------------------------------------------

/// The full-table, set-based check: every row of every constraint, in row
/// order, first violation wins.
Status OracleCheck(const Table& table,
                   const std::vector<Constraint>& constraints) {
  for (const Constraint& c : constraints) {
    std::vector<size_t> indices;
    for (const std::string& col : c.columns) {
      auto idx = table.schema().FindColumn(col);
      if (!idx.ok()) return idx.status();
      indices.push_back(*idx);
    }
    if (c.kind == ConstraintKind::kNotNull ||
        c.kind == ConstraintKind::kPrimaryKey) {
      for (const Tuple& row : table.rows()) {
        for (size_t i : indices) {
          if (row.value(i).is_null()) {
            return Status::ConstraintViolation(
                "NULL value in column " + c.columns[0] +
                " violates a NOT NULL / PRIMARY KEY constraint");
          }
        }
      }
    }
    if (c.kind == ConstraintKind::kPrimaryKey ||
        c.kind == ConstraintKind::kUnique) {
      std::set<Tuple> seen;
      for (const Tuple& row : table.rows()) {
        Tuple key = row.Project(indices);
        if (!seen.insert(key).second) {
          return Status::ConstraintViolation(
              "duplicate key " + key.ToString() + " violates " +
              (c.kind == ConstraintKind::kPrimaryKey ? "PRIMARY KEY"
                                                     : "UNIQUE") +
              " (" + Join(c.columns, ", ") + ")");
        }
      }
    }
  }
  return Status::OK();
}

constexpr int64_t kBigRows = 20000;

/// C(K primary key, V) with keys 0..kBigRows-1.
Table BigKeyedTable() {
  Table t(Schema({Column("K", DataType::kInteger),
                  Column("V", DataType::kInteger)}));
  for (int64_t k = 0; k < kBigRows; ++k) {
    t.AppendUnchecked(Row({I(k), I(k % 7)}));
  }
  return t;
}

class TouchedRowsCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.PutRelation("C", BigKeyedTable());
    catalog_.AddConstraint("C",
                           Constraint{ConstraintKind::kPrimaryKey, {"K"}});
  }

  /// Inserts `values` (a VALUES list) into C and requires the oracle's
  /// verdict on C ⊎ the new rows, byte for byte. C must stay unchanged
  /// when the insert fails.
  Status ExpectInsertMatchesOracle(const std::string& values,
                                   const std::vector<Tuple>& new_rows) {
    Table expected = **db_.GetRelation("C");
    for (const Tuple& row : new_rows) expected.AppendUnchecked(row);
    const Status want = OracleCheck(expected, Constraints());
    const Table* before = *db_.GetRelation("C");
    auto insert = Parse<sql::InsertStatement>("insert into C values " + values);
    const Status got = ExecuteInsert(*insert, &db_, catalog_);
    EXPECT_EQ(got.ToString(), want.ToString()) << values;
    if (!got.ok()) {
      EXPECT_EQ(*db_.GetRelation("C"), before) << values;
    }
    return got;
  }

  const std::vector<Constraint>& Constraints() {
    return catalog_.ConstraintsFor("C");
  }

  Database db_;
  Catalog catalog_;
};

TEST_F(TouchedRowsCheckTest, DuplicateSingleRowInsertIntoBigTable) {
  const Status got =
      ExpectInsertMatchesOracle("(12345, 1)", {Row({I(12345), I(1)})});
  EXPECT_EQ(got.ToString(),
            "ConstraintViolation: duplicate key (12345) violates PRIMARY KEY "
            "(K)");
  MAYBMS_EXPECT_OK(
      ExpectInsertMatchesOracle("(20000, 1)", {Row({I(20000), I(1)})}));
  EXPECT_EQ((*db_.GetRelation("C"))->num_rows(),
            static_cast<size_t>(kBigRows + 1));
}

TEST_F(TouchedRowsCheckTest, FirstDuplicateInRowOrderIsReported) {
  // The intra-batch duplicate (row 2, key 20001) precedes the row that
  // repeats an existing key (row 3, key 5).
  Status got = ExpectInsertMatchesOracle(
      "(20001, 0), (20001, 1), (5, 2)",
      {Row({I(20001), I(0)}), Row({I(20001), I(1)}), Row({I(5), I(2)})});
  EXPECT_NE(got.message().find("duplicate key (20001)"), std::string::npos)
      << got.ToString();
  // Reversed: the existing-key collision comes first.
  got = ExpectInsertMatchesOracle(
      "(5, 2), (20001, 0), (20001, 1)",
      {Row({I(5), I(2)}), Row({I(20001), I(0)}), Row({I(20001), I(1)})});
  EXPECT_NE(got.message().find("duplicate key (5)"), std::string::npos)
      << got.ToString();
  // A key that is new to the table but repeats a key later in the batch
  // and also appears in the table further down the batch.
  got = ExpectInsertMatchesOracle(
      "(20002, 0), (7, 1), (20002, 2)",
      {Row({I(20002), I(0)}), Row({I(7), I(1)}), Row({I(20002), I(2)})});
  EXPECT_NE(got.message().find("duplicate key (7)"), std::string::npos)
      << got.ToString();
}

TEST_F(TouchedRowsCheckTest, NullKeyIsReportedBeforeDuplicates) {
  Status got = ExpectInsertMatchesOracle("(NULL, 1)", {Row({N(), I(1)})});
  EXPECT_EQ(got.code(), StatusCode::kConstraintViolation);
  // NOT NULL is checked before uniqueness, whatever the row order.
  got = ExpectInsertMatchesOracle("(3, 1), (NULL, 2)",
                                  {Row({I(3), I(1)}), Row({N(), I(2)})});
  EXPECT_NE(got.message().find("NULL value in column K"), std::string::npos)
      << got.ToString();
}

TEST_F(TouchedRowsCheckTest, NonKeyUpdateRunsNoFullCheck) {
  // Break the invariant behind the caller's back: a duplicate key the
  // full check would report. An update that writes no constrained column
  // must not look at it.
  auto c = db_.MutableRelation("C");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  (*c)->AppendUnchecked(Row({I(3), I(99)}));
  Table updated = **c;
  for (Tuple& row : *updated.mutable_rows()) {
    if (row.value(0) == I(4)) row.value(1) = I(row.value(1).AsInteger() + 1);
  }
  ASSERT_FALSE(OracleCheck(updated, Constraints()).ok());

  auto update =
      Parse<sql::UpdateStatement>("update C set V = V + 1 where K = 4");
  MAYBMS_EXPECT_OK(ExecuteUpdate(*update, &db_, catalog_));
  const Table& after = **db_.GetRelation("C");
  EXPECT_EQ(after.row(4), Row({I(4), I(5)}));

  // Writing the key column runs the full check, which sees the duplicate.
  auto key_update =
      Parse<sql::UpdateStatement>("update C set K = K where K = 4");
  EXPECT_EQ(ExecuteUpdate(*key_update, &db_, catalog_).ToString(),
            "ConstraintViolation: duplicate key (3) violates PRIMARY KEY (K)");
}

TEST_F(TouchedRowsCheckTest, KeyCollidingUpdateMatchesOracle) {
  Table expected = **db_.GetRelation("C");
  for (Tuple& row : *expected.mutable_rows()) {
    if (row.value(0) == I(8)) row.value(0) = I(7);
  }
  const Status want = OracleCheck(expected, Constraints());
  ASSERT_FALSE(want.ok());
  const Table* before = *db_.GetRelation("C");
  auto update = Parse<sql::UpdateStatement>("update C set K = 7 where K = 8");
  const Status got = ExecuteUpdate(*update, &db_, catalog_);
  EXPECT_EQ(got.ToString(), want.ToString());
  EXPECT_EQ(*db_.GetRelation("C"), before);
}

// Randomized: a valid prefix plus arbitrary appended rows (NULLs, repeats
// within the batch and of the prefix) under PRIMARY KEY / UNIQUE / NOT
// NULL / composite constraints. The touched-rows check must agree with the
// full-table oracle on every case, and so must the full check.
TEST(TouchedRowsCheckProperty, AgreesWithFullTableOracle) {
  const Schema schema({Column("A", DataType::kInteger),
                       Column("B", DataType::kText),
                       Column("C", DataType::kReal)});
  const std::vector<std::vector<Constraint>> constraint_sets = {
      {Constraint{ConstraintKind::kPrimaryKey, {"A"}}},
      {Constraint{ConstraintKind::kUnique, {"B"}}},
      {Constraint{ConstraintKind::kNotNull, {"C"}},
       Constraint{ConstraintKind::kUnique, {"A", "B"}}},
      {Constraint{ConstraintKind::kUnique, {"C"}},
       Constraint{ConstraintKind::kPrimaryKey, {"B", "A"}}},
  };
  base::SplitMix64 rng(2024);
  auto pick = [&](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  auto value = [&](int column) -> Value {
    if (pick(8) == 0) return Value::Null();
    switch (column) {
      case 0:
        return I(pick(12));
      case 1:
        return Value::Text(std::string(1, static_cast<char>('a' + pick(6))));
      default:
        return Value::Real(0.5 * static_cast<double>(pick(10)));
    }
  };
  size_t violations = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::vector<Constraint>& constraints =
        constraint_sets[static_cast<size_t>(trial) % constraint_sets.size()];
    // A prefix the oracle accepts, grown row by row.
    Table table(schema);
    const int64_t prefix_target = pick(10);
    for (int attempt = 0;
         attempt < 40 &&
         static_cast<int64_t>(table.num_rows()) < prefix_target;
         ++attempt) {
      Table grown = table;
      grown.AppendUnchecked(Row({value(0), value(1), value(2)}));
      if (OracleCheck(grown, constraints).ok()) table = std::move(grown);
    }
    const size_t first_new = table.num_rows();
    const int64_t appended = 1 + pick(6);
    for (int64_t r = 0; r < appended; ++r) {
      table.AppendUnchecked(Row({value(0), value(1), value(2)}));
    }
    const Status want = OracleCheck(table, constraints);
    if (!want.ok()) ++violations;
    EXPECT_EQ(CheckTableConstraints(table, constraints, first_new).ToString(),
              want.ToString())
        << "trial " << trial << ", first_new " << first_new;
    EXPECT_EQ(CheckTableConstraints(table, constraints).ToString(),
              want.ToString())
        << "trial " << trial;
  }
  // The generator really produces both verdicts.
  EXPECT_GT(violations, 100u);
  EXPECT_LT(violations, 500u);
}

TEST(DmlTest, InsertCoercesAndChecksTypes) {
  Database db;
  db.PutRelation("P", PeopleTable());
  Catalog catalog;
  auto insert = Parse<sql::InsertStatement>(
      "insert into P values (3, 'carl')");
  MAYBMS_EXPECT_OK(ExecuteInsert(*insert, &db, catalog));
  EXPECT_EQ((*db.GetRelation("P"))->num_rows(), 3u);

  auto bad = Parse<sql::InsertStatement>("insert into P values ('x', 'y')");
  EXPECT_EQ(ExecuteInsert(*bad, &db, catalog).code(), StatusCode::kTypeError);
  EXPECT_EQ((*db.GetRelation("P"))->num_rows(), 3u) << "failed insert is a no-op";
}

TEST(DmlTest, InsertWithColumnListFillsNulls) {
  Database db;
  db.PutRelation("P", PeopleTable());
  Catalog catalog;
  auto insert = Parse<sql::InsertStatement>("insert into P (Id) values (9)");
  MAYBMS_EXPECT_OK(ExecuteInsert(*insert, &db, catalog));
  const Table& t = **db.GetRelation("P");
  EXPECT_TRUE(t.row(2).value(1).is_null());
}

TEST(DmlTest, InsertSelect) {
  Database db;
  db.PutRelation("P", PeopleTable());
  db.PutRelation("Q", Table(PeopleTable().schema()));
  Catalog catalog;
  auto insert = Parse<sql::InsertStatement>(
      "insert into Q select Id + 10, Name from P");
  MAYBMS_EXPECT_OK(ExecuteInsert(*insert, &db, catalog));
  ExpectRows(**db.GetRelation("Q"), {"(11, ann)", "(12, bob)"});
}

TEST(DmlTest, UpdateEvaluatesAgainstPreUpdateRow) {
  Database db;
  db.PutRelation("P", PeopleTable());
  Catalog catalog;
  auto update = Parse<sql::UpdateStatement>(
      "update P set Id = Id + 1, Name = 'x' where Id >= 1");
  MAYBMS_EXPECT_OK(ExecuteUpdate(*update, &db, catalog));
  ExpectRows(**db.GetRelation("P"), {"(2, x)", "(3, x)"});
}

// An update or delete that matches no row keeps the stored instance (no
// copy is made and none is published); the first failing row's error is
// reported, and nothing changes.
TEST(DmlTest, NoMatchKeepsTheInstanceAndErrorsComeFromTheFirstRow) {
  Database db;
  db.PutRelation("P", PeopleTable());
  Catalog catalog;
  const auto before = db.GetRelationHandle("P");
  ASSERT_TRUE(before.ok());
  auto update = Parse<sql::UpdateStatement>("update P set Id = 0 where Id > 5");
  MAYBMS_EXPECT_OK(ExecuteUpdate(*update, &db, catalog));
  auto del = Parse<sql::DeleteStatement>("delete from P where Id > 5");
  MAYBMS_EXPECT_OK(ExecuteDelete(*del, &db));
  EXPECT_EQ(*db.GetRelationHandle("P"), *before);

  // Row 1 (Id 1) matches and its SET divides by zero; row 2's would fail
  // differently. The first row's error wins.
  auto failing = Parse<sql::UpdateStatement>(
      "update P set Id = 1 / (Id - 1) + length(Name) / (Id - 2)");
  const Status status = ExecuteUpdate(*failing, &db, catalog);
  EXPECT_FALSE(status.ok());
  auto first = Parse<sql::UpdateStatement>(
      "update P set Id = 1 / (Id - 1) where Id = 1");
  EXPECT_EQ(status.ToString(), ExecuteUpdate(*first, &db, catalog).ToString());
  EXPECT_EQ(*db.GetRelationHandle("P"), *before);
}

// Rewrite applies an UPDATE or DELETE to any bag of the target's rows and
// reports whether it changed any: the per-alternative form of Execute.
TEST(DmlTest, RewriteAppliesToAnyPartOfTheTarget) {
  Database db;
  db.PutRelation("P", PeopleTable());
  Catalog catalog;
  const std::vector<Tuple> part = {Row({I(5), T("eve")}), Row({I(1), T("al")})};
  auto update = Parse<sql::UpdateStatement>(
      "update P set Id = Id * 10, Name = 'x' where Id = 1");
  auto plan = engine::PreparedDml::Prepare(*update, db, &catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->row_local());
  std::vector<Tuple> out;
  auto changed = plan->Rewrite(db, part, &out);
  ASSERT_TRUE(changed.ok() && *changed);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ToString(), "(5, eve)");
  EXPECT_EQ(out[1].ToString(), "(10, x)");
  out.clear();
  changed = plan->Rewrite(db, {Row({I(7), T("z")})}, &out);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);
  EXPECT_TRUE(out.empty());

  auto del = Parse<sql::DeleteStatement>("delete from P where Name = 'eve'");
  auto del_plan = engine::PreparedDml::Prepare(*del, db, nullptr);
  ASSERT_TRUE(del_plan.ok());
  changed = del_plan->Rewrite(db, part, &out);
  ASSERT_TRUE(changed.ok() && *changed);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ToString(), "(1, al)");

  // Subqueries, and writes to constrained columns, are not row-local.
  auto nested = Parse<sql::DeleteStatement>(
      "delete from P where Id in (select Id from P)");
  EXPECT_FALSE(engine::PreparedDml::Prepare(*nested, db, nullptr)->row_local());
  catalog.AddConstraint("P", Constraint{ConstraintKind::kPrimaryKey, {"Id"}});
  EXPECT_FALSE(engine::PreparedDml::Prepare(*update, db, &catalog)->row_local());
  auto insert = Parse<sql::InsertStatement>("insert into P values (3, 'c')");
  EXPECT_FALSE(engine::PreparedDml::Prepare(*insert, db, &catalog)->row_local());
}

TEST(DmlTest, UpdateRespectsConstraints) {
  Database db;
  db.PutRelation("P", PeopleTable());
  Catalog catalog;
  catalog.AddConstraint("P", Constraint{ConstraintKind::kPrimaryKey, {"Id"}});
  auto update = Parse<sql::UpdateStatement>("update P set Id = 1");
  EXPECT_EQ(ExecuteUpdate(*update, &db, catalog).code(),
            StatusCode::kConstraintViolation);
  ExpectRows(**db.GetRelation("P"), {"(1, ann)", "(2, bob)"});
}

TEST(DmlTest, DeleteWithAndWithoutWhere) {
  Database db;
  db.PutRelation("P", PeopleTable());
  auto del = Parse<sql::DeleteStatement>("delete from P where Id = 1");
  MAYBMS_EXPECT_OK(ExecuteDelete(*del, &db));
  ExpectRows(**db.GetRelation("P"), {"(2, bob)"});

  auto del_all = Parse<sql::DeleteStatement>("delete from P");
  MAYBMS_EXPECT_OK(ExecuteDelete(*del_all, &db));
  EXPECT_TRUE((*db.GetRelation("P"))->empty());
}

// ---- world-set level semantics (both engines) ----

class WorldDmlTest : public EngineTest {};

TEST_P(WorldDmlTest, InsertAppliesInEveryWorld) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table I as select A, B, C from R repair by key A;");
  Exec(session, "insert into I values ('a9', 99, 'c9');");
  QueryResult result = Exec(session, "select * from I where A = 'a9';");
  auto dist = WorldDistribution(result.worlds());
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist.begin()->first, "(a9, 99, c9);");
  EXPECT_NEAR(dist.begin()->second, 1.0, 1e-12);
}

TEST_P(WorldDmlTest, ViolationInSomeWorldDiscardsInAllWorlds) {
  Session session((Options()));
  ExecScript(session, R"sql(
    create table R (K integer, V text);
    insert into R values (1, 'x'), (1, 'y'), (2, 'z');
    create table I as select * from R repair by key K;
    create table G (K integer, unique (K));
  )sql");
  // Seed G from one world-dependent value: in some worlds I has (1,'x'),
  // in others (1,'y'). Inserting K=1 into G succeeds everywhere...
  Exec(session, "insert into G values (1);");
  // ...but inserting 1 again violates UNIQUE in every world; and crucially
  // inserting a world-dependent count would differ. Here: the duplicate
  // fails everywhere and G must stay unchanged.
  auto bad = session.Execute("insert into G values (1);");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kConstraintViolation);
  QueryResult g = Exec(session, "select * from G;");
  auto dist = WorldDistribution(g.worlds());
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist.begin()->first, "(1);");
}

TEST_P(WorldDmlTest, WorldDependentUpdate) {
  Session session((Options()));
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1, 10), (1, 20);
    create table I as select * from R repair by key K;
  )sql");
  // Update acts on each world's instance: only worlds where V=10 change.
  Exec(session, "update I set V = V + 1 where V = 10;");
  QueryResult result = Exec(session, "select * from I;");
  auto dist = WorldDistribution(result.worlds());
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_TRUE(dist.count("(1, 11);"));
  EXPECT_TRUE(dist.count("(1, 20);"));
}

TEST_P(WorldDmlTest, WorldDependentDelete) {
  Session session((Options()));
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1, 10), (1, 20), (2, 30);
    create table I as select * from R repair by key K;
  )sql");
  Exec(session, "delete from I where V = 10;");
  QueryResult result = Exec(session, "select * from I;");
  auto dist = WorldDistribution(result.worlds());
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_TRUE(dist.count("(2, 30);"));                // world that had (1,10)
  EXPECT_TRUE(dist.count("(1, 20);(2, 30);"));
}

MAYBMS_INSTANTIATE_ENGINES(WorldDmlTest);

}  // namespace
}  // namespace maybms::engine
