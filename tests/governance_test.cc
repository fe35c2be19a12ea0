// Resource-governance battery (ISSUE 10).
//
// The central property: a statement aborted by ANY governance verdict —
// an injected kill point, a real deadline, a world budget, a memory
// budget, or an external cancellation — leaves the session exactly as it
// was before the statement: same relations, same per-world answers, same
// durable store generation, and (paged mode) the same state after a full
// process restart. The kill-point battery proves it exhaustively: it
// fires the trip at EVERY governed poll of a mutating statement, at
// thread counts {1, 2, 4, 8}, on both engines, on memory and paged
// storage.
//
// Determinism riders: the error STRING of a given verdict is identical
// at every thread count, and the number of kill points of a statement
// (its governed poll count) is a function of the statement and the data,
// never the schedule.

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "base/query_context.h"
#include "isql/formatter.h"
#include "isql/session.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "worlds/decomposed_world_set.h"

namespace maybms::isql {
namespace {

using maybms::testing::EngineTest;
using maybms::testing::Exec;
using maybms::testing::ExecScript;

/// Deterministic rendering of the session's visible state: the formatted
/// answer of `select * from t` for every probe relation (missing tables
/// render as their error). Engines render worlds deterministically, so
/// equal strings mean equal state.
std::string ProbeState(Session& session,
                       const std::vector<std::string>& tables) {
  std::string out;
  for (const std::string& table : tables) {
    auto r = session.Execute("select * from " + table + ";");
    out += "== " + table + " ==\n";
    out += r.ok() ? FormatQueryResult(*r) : r.status().ToString();
    out += "\n";
  }
  return out;
}

/// Loads a 4-worlds-per-key repair workload: key groups {1,2,3} of sizes
/// {2,2,1} give 2*2*1 = 4 repairs.
void LoadRepairFixture(Session& session) {
  ExecScript(session, R"sql(
    create table R (K integer, P text);
    insert into R values
      (1, 'a'), (1, 'b'), (2, 'c'), (2, 'd'), (3, 'e');
    create table I as select * from R repair by key K;
  )sql");
}

// ---------------------------------------------------------------------------
// Environment validation (same strictness as MAYBMS_POOL_PAGES, PR 9)
// ---------------------------------------------------------------------------

class GovernanceEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("MAYBMS_STATEMENT_TIMEOUT_MS");
    ::unsetenv("MAYBMS_MAX_WORLDS");
    ::unsetenv("MAYBMS_MEM_BUDGET_MB");
  }
};

TEST_F(GovernanceEnvTest, MalformedValuesAreStickyInvalidArgument) {
  for (const char* env : {"MAYBMS_STATEMENT_TIMEOUT_MS", "MAYBMS_MAX_WORLDS",
                          "MAYBMS_MEM_BUDGET_MB"}) {
    for (const char* bad : {"abc", "5s", "-1", "0", "", " 5", "5 ",
                            "18446744073709551616"}) {
      ASSERT_EQ(::setenv(env, bad, 1), 0);
      Session session;
      auto r = session.Execute("select 1;");
      ASSERT_FALSE(r.ok()) << env << "=\"" << bad
                           << "\" was silently accepted";
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(r.status().message().find(env), std::string::npos)
          << "error should name the variable: " << r.status().ToString();
      // Sticky: the next statement reports the same configuration error.
      auto again = session.Execute("select 1;");
      EXPECT_FALSE(again.ok()) << env << "=" << bad;
      ::unsetenv(env);
    }
  }
}

TEST_F(GovernanceEnvTest, ExplicitOptionsIgnoreTheEnvironment) {
  ASSERT_EQ(::setenv("MAYBMS_MAX_WORLDS", "garbage", 1), 0);
  SessionOptions options;
  options.max_worlds = 1000;
  Session session(options);
  auto r = session.Execute("select 1;");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(session.governance_limits().max_worlds, 1000u);
}

TEST_F(GovernanceEnvTest, EnvironmentLimitsResolveIntoTheSession) {
  ASSERT_EQ(::setenv("MAYBMS_STATEMENT_TIMEOUT_MS", "7000", 1), 0);
  ASSERT_EQ(::setenv("MAYBMS_MAX_WORLDS", "4", 1), 0);
  Session session;
  EXPECT_EQ(session.governance_limits().deadline_ms, 7000u);
  EXPECT_EQ(session.governance_limits().max_worlds, 4u);
  // Statements that stay under the cap run normally...
  ExecScript(session, R"sql(
    create table R (K integer, P text);
    insert into R values
      (1, 'a'), (1, 'b'), (2, 'c'), (2, 'd'), (3, 'e');
  )sql");
  // ...and the env-resolved world budget governs the fan-out.
  auto over = session.Execute(
      "create table I as select * from R repair by key K;");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.status().message().find(
                "statement world budget of 4 worlds exceeded"),
            std::string::npos)
      << over.status().ToString();
}

// ---------------------------------------------------------------------------
// Budget verdicts: deterministic errors, thread-count invariance
// ---------------------------------------------------------------------------

class GovernanceTest : public EngineTest {};
MAYBMS_INSTANTIATE_ENGINES(GovernanceTest);

TEST_P(GovernanceTest, WorldBudgetErrorIsIdenticalAtEveryThreadCount) {
  std::vector<std::string> errors;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SessionOptions options = Options();
    options.max_worlds = 3;
    options.threads = threads;
    Session session(options);
    ExecScript(session, R"sql(
      create table R (K integer, P text);
      insert into R values (1, 'a'), (1, 'b'), (2, 'c'), (2, 'd');
    )sql");
    auto r = session.Execute(
        "create table I as select * from R repair by key K;");
    ASSERT_FALSE(r.ok()) << "4 repairs must exceed a budget of 3";
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    errors.push_back(r.status().ToString());

    // Rollback: the failed CREATE TABLE AS left nothing behind, and the
    // source is untouched.
    auto missing = session.Execute("select * from I;");
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(session.Execute("select * from R;").ok());
  }
  for (const std::string& error : errors) {
    EXPECT_EQ(error, errors[0]) << "verdict text must not depend on the "
                                   "thread count";
    EXPECT_NE(error.find("statement world budget of 3 worlds exceeded"),
              std::string::npos)
        << error;
  }
}

// A statement over certain relations charges its answer bytes to the
// memory budget on both engines: under a budget below the answer, a
// slice of a 200-row certain table fails with or without a quantifier,
// and so does its materialization, which leaves no relation behind.
TEST_P(GovernanceTest, CertainOnlyStatementsChargeTheirAnswerBytes) {
  Session session(Options());
  std::string script =
      "create table C (K integer, V integer); insert into C values ";
  for (int k = 0; k < 200; ++k) {
    script += std::string(k > 0 ? ", " : "") + "(" + std::to_string(k) +
              ", " + std::to_string(k * 3) + ")";
  }
  ExecScript(session, script + ";");
  const std::vector<std::string> probes = {"C", "D"};
  const std::string before = ProbeState(session, probes);
  for (const char* statement :
       {"select K, V from C;", "select possible K, V from C;",
        "select conf, K from C;", "create table D as select K from C;"}) {
    SCOPED_TRACE(statement);
    base::GovernanceLimits limits;
    limits.mem_budget_bytes = 2000;
    base::QueryContext ctx{limits};
    base::QueryContextScope scope(&ctx);
    auto r = session.Execute(statement);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(r.status().message(),
              "statement memory budget of 2000 bytes exceeded");
  }
  EXPECT_EQ(ProbeState(session, probes), before);
}

// The decomposed engine's enumeration of a component sub-product counts
// against the world budget: 12 two-way keys are 4,096 worlds, over a
// budget of 100, whether a select or a write enumerates them (a write
// whose subquery reads I; a row-local one enumerates nothing). The
// per-alternative fast path enumerates nothing and still runs.
TEST(GovernanceBudgetTest, DecomposedSubProductEnumerationIsCharged) {
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SessionOptions options;
    options.engine = EngineMode::kDecomposed;
    options.threads = threads;
    options.max_worlds = 100;
    Session session(options);
    std::string values;
    for (int k = 0; k < 12; ++k) {
      if (k > 0) values += ", ";
      values += "(" + std::to_string(k) + ", 1), (" + std::to_string(k) +
                ", 2)";
    }
    ExecScript(session, "create table R (K integer, V integer);"
                        "insert into R values " + values + ";"
                        "create table I as select * from R repair by key K;");
    ASSERT_EQ(session.world_set().NumWorlds(), 4096u);
    auto before = session.world_set().ToSnapshot();
    ASSERT_TRUE(before.ok());
    for (const char* statement :
         {"select conf, sum(V) from I;",
          "update I set V = V + 1 where K in (select K from I where K = "
          "0);"}) {
      SCOPED_TRACE(statement);
      auto r = session.Execute(statement);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(r.status().message().find(
                    "statement world budget of 100 worlds exceeded"),
                std::string::npos)
          << r.status().ToString();
      auto after = session.world_set().ToSnapshot();
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(after->tables, before->tables);
      ASSERT_EQ(after->components.size(), before->components.size());
      for (size_t i = 0; i < before->components.size(); ++i) {
        EXPECT_EQ(after->components[i].instance,
                  before->components[i].instance);
      }
    }
    auto fast = session.Execute("select conf, K, V from I where K < 3;");
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(fast->table().num_rows(), 6u);
  }
}

/// R(K, V, W): `keys` keys x `rows` weighted rows, repaired into I (one
/// component per key).
std::string WeightedRepairScript(int keys, int rows) {
  std::string script =
      "create table R (K integer, V integer, W integer); insert into R values ";
  for (int k = 0; k < keys; ++k) {
    for (int j = 0; j < rows; ++j) {
      if (k > 0 || j > 0) script += ", ";
      script += "(" + std::to_string(k) + ", " + std::to_string(k * 10 + j) +
                ", " + std::to_string(1 + (k + j) % 4) + ")";
    }
  }
  return script +
         "; create table I as select K, V from R repair by key K weight W;";
}

// The decomposed fast path charges the rows of every alternative that
// answers a slice: a memory budget of exactly the charged bytes passes,
// one byte less fails, at every thread count. Materializing a slice
// enumerates nothing either: `create table ... as` of a possible, a conf
// and a quantifier-free slice succeeds under a world budget of 1 and
// charges no world; the quantifier-free one attaches its rows to I's
// components and adds none.
TEST(GovernanceBudgetTest, FastPathSliceChargesItsAnswerBytes) {
  const char* kSlice = "select conf, K, V from I where K between 990 and 1009;";
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SessionOptions options;
    options.engine = EngineMode::kDecomposed;
    options.threads = threads;
    Session session(options);
    ExecScript(session, WeightedRepairScript(2000, 3));
    uint64_t charged = 0;
    {
      base::QueryContext ctx{base::GovernanceLimits{}};
      base::QueryContextScope scope(&ctx);
      ASSERT_TRUE(session.Execute(kSlice).ok());
      charged = ctx.bytes_charged();
    }
    // 60 answering alternatives of one row and two columns.
    EXPECT_EQ(charged, 60u * base::EstimateTableBytes(1, 2));
    for (uint64_t budget : {charged, charged - 1}) {
      base::GovernanceLimits limits;
      limits.mem_budget_bytes = budget;
      base::QueryContext ctx{limits};
      base::QueryContextScope scope(&ctx);
      auto r = session.Execute(kSlice);
      if (budget == charged) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->table().num_rows(), 60u);
      } else {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
        EXPECT_NE(r.status().message().find("statement memory budget"),
                  std::string::npos)
            << r.status().ToString();
      }
    }
    const size_t components =
        dynamic_cast<const worlds::DecomposedWorldSet&>(session.world_set())
            .num_components();
    base::GovernanceLimits limits;
    limits.max_worlds = 1;
    for (const char* statement :
         {"create table P as select possible K, V from I "
          "where K between 990 and 1009;",
          "create table F as select conf, K, V from I "
          "where K between 990 and 1009;",
          "create table Q as select K, V from I "
          "where K between 990 and 1009;"}) {
      SCOPED_TRACE(statement);
      base::QueryContext ctx{limits};
      base::QueryContextScope scope(&ctx);
      auto r = session.Execute(statement);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(ctx.worlds_charged(), 0u);
    }
    EXPECT_EQ(
        dynamic_cast<const worlds::DecomposedWorldSet&>(session.world_set())
            .num_components(),
        components);
    for (const char* table : {"P", "F"}) {
      auto rows = session.Execute(std::string("select certain count(*) from ") +
                                  table + ";");
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows->table().row(0).value(0).AsInteger(), 60) << table;
    }
  }
}

// The fast path polls while it reads the relation: a 40,000-key slice
// read whose deadline has already passed fails with the deadline error.
TEST(GovernanceBudgetTest, FastPathSliceHonoursAnExpiredDeadline) {
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SessionOptions options;
    options.engine = EngineMode::kDecomposed;
    options.threads = threads;
    Session session(options);
    ExecScript(session, WeightedRepairScript(40000, 2));
    base::GovernanceLimits limits;
    limits.deadline_ms = 1;
    base::QueryContext ctx{limits};
    ::usleep(5000);  // the deadline is now in the past
    base::QueryContextScope scope(&ctx);
    auto r = session.Execute(
        "select possible K, V from I where K between 100 and 119;");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(r.status().message().find("statement deadline of 1 ms exceeded"),
              std::string::npos)
        << r.status().ToString();
  }
}

// A memory budget that is not a whole number of MiB is reported in bytes
// (a MiB figure would read 0); a whole-MiB budget keeps the MiB text.
TEST(GovernanceBudgetTest, MemoryBudgetMessageNamesItsUnit) {
  const char* kSlice = "select conf, K, V from I where K between 990 and 1009;";
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  Session session(options);
  ExecScript(session, WeightedRepairScript(2000, 3));
  {
    // The slice charges 60 x 32 = 1,920 bytes.
    base::GovernanceLimits limits;
    limits.mem_budget_bytes = 1919;
    base::QueryContext ctx{limits};
    base::QueryContextScope scope(&ctx);
    auto r = session.Execute(kSlice);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(r.status().message(),
              "statement memory budget of 1919 bytes exceeded");
  }
  base::GovernanceLimits limits;
  limits.mem_budget_bytes = uint64_t{2} << 20;
  base::QueryContext ctx{limits};
  const Status status = ctx.ChargeBytes((uint64_t{2} << 20) + 1);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message(), "statement memory budget of 2 MiB exceeded");
}

// possible/certain of count and sum over a repaired relation answer in
// closed form: no world is decoded, so a world budget of 1 does not stop
// them, and the memory budget is charged the support's rows. The 2,000
// keys x 3 rows of I hold V = 10k + j, so the sums span 4,001 values.
TEST(GovernanceBudgetTest, ClosedFormAggregatesAreNotChargedWorlds) {
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SessionOptions options;
    options.engine = EngineMode::kDecomposed;
    options.threads = threads;
    Session session(options);
    ExecScript(session, WeightedRepairScript(2000, 3));
    base::GovernanceLimits limits;
    limits.max_worlds = 1;
    {
      base::QueryContext ctx{limits};
      base::QueryContextScope scope(&ctx);
      auto r = session.Execute("select possible sum(V) from I;");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const Table& sums = r->table();
      ASSERT_EQ(sums.num_rows(), 4001u);
      const int64_t base = 10 * (1999 * 2000 / 2);
      EXPECT_EQ(sums.row(0).value(0).AsInteger(), base);
      EXPECT_EQ(sums.row(4000).value(0).AsInteger(), base + 4000);
      EXPECT_EQ(ctx.worlds_charged(), 0u);
      EXPECT_EQ(ctx.bytes_charged(), base::EstimateTableBytes(4001, 1));
    }
    {
      base::QueryContext ctx{limits};
      base::QueryContextScope scope(&ctx);
      auto r = session.Execute("select certain count(*) from I;");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->table().num_rows(), 1u);
      EXPECT_EQ(r->table().row(0).value(0).AsInteger(), 2000);
      EXPECT_EQ(ctx.worlds_charged(), 0u);
    }
    // `create table ... as` of either aggregate answers in closed form.
    for (const char* statement :
         {"create table S as select possible sum(V) from I;",
          "create table N as select certain count(*) from I;"}) {
      SCOPED_TRACE(statement);
      base::QueryContext ctx{limits};
      base::QueryContextScope scope(&ctx);
      auto r = session.Execute(statement);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(ctx.worlds_charged(), 0u);
    }
    auto sums = session.Execute("select certain count(*) from S;");
    ASSERT_TRUE(sums.ok()) << sums.status().ToString();
    EXPECT_EQ(sums->table().row(0).value(0).AsInteger(), 4001);
    auto count = session.Execute("select certain * from N;");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(count->table().num_rows(), 1u);
    EXPECT_EQ(count->table().row(0).value(0).AsInteger(), 2000);
  }
}

TEST_P(GovernanceTest, GenerousLimitsChangeNothing) {
  // Armed-but-unfired governance is invisible: identical answers with
  // and without limits.
  SessionOptions plain = Options();
  Session ungoverned(plain);
  SessionOptions limited = Options();
  limited.statement_timeout_ms = 600'000;
  limited.max_worlds = 1 << 20;
  limited.mem_budget_mb = 4096;
  Session governed(limited);
  for (Session* session : {&ungoverned, &governed}) {
    LoadRepairFixture(*session);
  }
  const std::vector<std::string> probes = {"R", "I"};
  EXPECT_EQ(ProbeState(ungoverned, probes), ProbeState(governed, probes));
}

TEST_F(GovernanceEnvTest, MemoryBudgetAbortsExplicitMaterialization) {
  // 12 two-way keys fan out to 4096 worlds of 12 rows x 2 columns:
  // an estimated 4096 * 12 * 2 * 16 B = 1.5 MiB, over a 1 MiB budget.
  // The decomposed engine represents the same world-set in O(keys) —
  // not materializing this is exactly its job — so the memory-budget
  // abort is an explicit-engine scenario (the decomposed analogue is
  // the world budget on enumeration, covered elsewhere).
  SessionOptions options;
  options.engine = EngineMode::kExplicit;
  options.mem_budget_mb = 1;
  Session session(options);
  std::string values;
  for (int k = 0; k < 12; ++k) {
    for (const char* p : {"x", "y"}) {
      values += (values.empty() ? "" : ", ") + std::string("(") +
                std::to_string(k) + ", '" + p + "')";
    }
  }
  ExecScript(session, "create table R (K integer, P text);"
                      "insert into R values " + values + ";");
  auto r = session.Execute(
      "create table I as select * from R repair by key K;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("statement memory budget of 1 MiB "
                                      "exceeded"),
            std::string::npos)
      << r.status().ToString();
  // Rollback proof.
  auto missing = session.Execute("select * from I;");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(GovernanceEnvTest, RealDeadlineAbortsLongMaterialization) {
  // 4096 explicit worlds take well over a millisecond to materialize;
  // the 1 ms deadline must fire at some chunk-boundary poll.
  SessionOptions options;
  options.engine = EngineMode::kExplicit;
  options.statement_timeout_ms = 1;
  Session session(options);
  std::string values;
  for (int k = 0; k < 12; ++k) {
    for (const char* p : {"x", "y"}) {
      values += (values.empty() ? "" : ", ") + std::string("(") +
                std::to_string(k) + ", '" + p + "')";
    }
  }
  ExecScript(session, "create table R (K integer, P text);"
                      "insert into R values " + values + ";");
  auto r = session.Execute(
      "create table I as select * from R repair by key K;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("statement deadline of 1 ms exceeded"),
            std::string::npos)
      << r.status().ToString();
  auto missing = session.Execute("select * from I;");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// The kill-point battery
// ---------------------------------------------------------------------------

struct BatteryResult {
  uint64_t kill_points = 0;  // trips survived before the clean run
  std::string error;         // the (single) verdict text observed
};

/// Runs `statement` under PollTrip::Arm(trip) for trip = 0, 1, 2, ...
/// until it succeeds. Every failed attempt must leave the probed state
/// byte-identical and (paged) the store generation unchanged.
BatteryResult RunKillPointBattery(Session& session,
                                  const std::string& statement,
                                  const std::vector<std::string>& probes) {
  BatteryResult result;
  const std::string before = ProbeState(session, probes);
  const uint64_t generation_before =
      session.is_paged() ? session.paged_store()->generation() : 0;
  for (uint64_t trip = 0;; ++trip) {
    EXPECT_LT(trip, 100'000u) << "battery did not terminate";
    if (trip >= 100'000u) break;
    base::PollTrip::Arm(trip);
    auto r = session.Execute(statement);
    base::PollTrip::Disarm();
    if (r.ok()) {
      result.kill_points = trip;
      break;
    }
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << "trip " << trip << ": " << r.status().ToString();
    if (result.error.empty()) {
      result.error = r.status().ToString();
    } else {
      EXPECT_EQ(result.error, r.status().ToString())
          << "every kill point surfaces the identical verdict";
    }
    EXPECT_EQ(ProbeState(session, probes), before)
        << "state changed after the abort at trip " << trip;
    if (session.is_paged()) {
      EXPECT_EQ(session.paged_store()->generation(), generation_before)
          << "a failed statement advanced the durable root at trip " << trip;
    }
  }
  EXPECT_GT(result.kill_points, 0u)
      << "the statement never polled — it is ungoverned";
  return result;
}

class KillPointBatteryTest : public EngineTest {
 protected:
  void SetUp() override {
    base::PollTrip::Disarm();
    dir_ = std::filesystem::temp_directory_path() /
           ("maybms-governance-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    base::PollTrip::Disarm();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};
MAYBMS_INSTANTIATE_ENGINES(KillPointBatteryTest);

TEST_P(KillPointBatteryTest, EveryKillPointRollsBackMemoryMode) {
  const std::vector<std::string> probes = {"R", "I", "J"};
  const std::string statement =
      "create table J as select K, P from I where K <= 2;";
  std::vector<uint64_t> kill_points;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SessionOptions options = Options();
    options.threads = threads;
    Session session(options);
    LoadRepairFixture(session);
    BatteryResult result = RunKillPointBattery(session, statement, probes);
    kill_points.push_back(result.kill_points);
    // The clean run went through: J exists now.
    EXPECT_TRUE(session.Execute("select * from J;").ok());
  }
  for (uint64_t n : kill_points) {
    EXPECT_EQ(n, kill_points[0])
        << "the governed poll count of a statement must be a function of "
           "the data, not the thread count";
  }
}

TEST_P(KillPointBatteryTest, EveryKillPointRollsBackPagedMode) {
  const std::vector<std::string> probes = {"R", "I", "J"};
  const std::string statement =
      "create table J as select K, P from I where K <= 2;";
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::filesystem::path store_dir =
        dir_ / ("t" + std::to_string(threads));
    std::filesystem::create_directories(store_dir);
    SessionOptions options = Options();
    options.threads = threads;
    options.storage = StorageMode::kPaged;
    options.storage_dir = store_dir.string();
    std::string final_state;
    {
      Session session(options);
      ASSERT_TRUE(session.is_paged());
      LoadRepairFixture(session);
      RunKillPointBattery(session, statement, probes);
      final_state = ProbeState(session, probes);
    }
    // Restart equivalence: a fresh session over the same store sees the
    // exact post-battery state (every kill point left the disk clean).
    Session reopened(options);
    EXPECT_EQ(ProbeState(reopened, probes), final_state);
  }
}

// ---------------------------------------------------------------------------
// Server: governed frames, statement budgets on the wire, drain, retry
// ---------------------------------------------------------------------------

std::pair<maybms::StatusCode, std::string> ClientRoundTrip(
    uint16_t port, const std::string& request) {
  auto conn = server::ConnectTo("127.0.0.1", port);
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  auto reply = server::RoundTrip(*conn, request, 10'000);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() ? *reply
                    : std::pair<maybms::StatusCode, std::string>{};
}

TEST(ServerGovernanceTest, StatementBudgetSurfacesOnTheWire) {
  server::ServerOptions options;
  options.session.max_worlds = 3;
  auto server = server::Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  auto setup = ClientRoundTrip(
      port, "create table R (K integer, P text);"
            "insert into R values (1,'a'),(1,'b'),(2,'c'),(2,'d');");
  ASSERT_EQ(setup.first, StatusCode::kOk) << setup.second;

  auto over = ClientRoundTrip(
      port, "create table I as select * from R repair by key K;");
  EXPECT_EQ(over.first, StatusCode::kResourceExhausted);
  EXPECT_NE(over.second.find("statement world budget of 3 worlds exceeded"),
            std::string::npos)
      << over.second;

  // Rollback happened behind the wire: I does not exist, R does.
  auto missing = ClientRoundTrip(port, "select * from I;");
  EXPECT_EQ(missing.first, StatusCode::kNotFound);
  auto still = ClientRoundTrip(port, "select * from R;");
  EXPECT_EQ(still.first, StatusCode::kOk);
  (*server)->Shutdown();
}

TEST(ServerGovernanceTest, GovernedFrameTightensTheDeadline) {
  server::ServerOptions options;
  options.session.engine = EngineMode::kExplicit;
  auto server = server::Server::Start(options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  std::string values;
  for (int k = 0; k < 12; ++k) {
    for (const char* p : {"x", "y"}) {
      values += (values.empty() ? "" : ", ") + std::string("(") +
                std::to_string(k) + ", '" + p + "')";
    }
  }
  auto setup = ClientRoundTrip(port, "create table R (K integer, P text);"
                                     "insert into R values " + values + ";");
  ASSERT_EQ(setup.first, StatusCode::kOk) << setup.second;

  // A 1 ms request deadline against a 4096-world materialization: the
  // server must return the deadline verdict, not the answer.
  auto governed = ClientRoundTrip(
      port, server::EncodeGovernedRequest(
                1, "create table I as select * from R repair by key K;"));
  EXPECT_EQ(governed.first, StatusCode::kDeadlineExceeded);
  EXPECT_NE(governed.second.find("statement deadline of 1 ms exceeded"),
            std::string::npos)
      << governed.second;

  // The same request with a generous deadline succeeds — the request
  // frame, not the server config, carried the 1 ms limit.
  auto relaxed = ClientRoundTrip(
      port, server::EncodeGovernedRequest(
                60'000,
                "create table I as select * from R repair by key K;"));
  EXPECT_EQ(relaxed.first, StatusCode::kOk) << relaxed.second;
  (*server)->Shutdown();
}

TEST(ServerGovernanceTest, MalformedGovernedFrameIsRejected) {
  auto server = server::Server::Start(server::ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto conn = server::ConnectTo("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  // Magic byte with a truncated deadline field.
  std::string torn(1, server::kGovernedRequestMagic);
  torn += "\x01\x02";
  auto reply = server::RoundTrip(*conn, torn, 10'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->first, StatusCode::kInvalidArgument);
  (*server)->Shutdown();
}

TEST(ServerGovernanceTest, RetryRidesOutTheCapacityReply) {
  server::ServerOptions options;
  options.max_connections = 1;
  auto server = server::Server::Start(options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  // Occupy the single slot with an idle connection (a request pins the
  // worker; idle is enough — capacity counts connections, not load).
  auto holder = server::ConnectTo("127.0.0.1", port);
  ASSERT_TRUE(holder.ok());
  auto held = server::RoundTrip(*holder, "select 1;", 10'000);
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held->first, StatusCode::kOk);

  // No retries: the deterministic busy reply surfaces immediately.
  server::RetryPolicy no_retry;
  auto refused = server::RoundTripWithRetry(
      "127.0.0.1", port, "select 1;", 10'000, no_retry);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->first, StatusCode::kResourceExhausted);
  EXPECT_EQ(refused->second, server::Server::BusyMessage(1));

  // Bounded retries against a still-full server: every attempt connects,
  // gets refused, and backs off — then the LAST reply surfaces.
  server::RetryPolicy bounded;
  bounded.max_retries = 2;
  bounded.base_backoff_ms = 1;
  bounded.max_backoff_ms = 4;
  const uint64_t refused_before = (*server)->connections_refused();
  auto exhausted = server::RoundTripWithRetry(
      "127.0.0.1", port, "select 1;", 10'000, bounded);
  ASSERT_TRUE(exhausted.ok()) << exhausted.status().ToString();
  EXPECT_EQ(exhausted->first, StatusCode::kResourceExhausted);
  EXPECT_EQ((*server)->connections_refused() - refused_before, 3u)
      << "1 initial attempt + 2 retries, each its own connection";

  // Free the slot; the retry loop now lands a clean attempt.
  holder->Close();
  server::RetryPolicy patient;
  patient.max_retries = 20;
  patient.base_backoff_ms = 1;
  patient.max_backoff_ms = 50;
  auto recovered = server::RoundTripWithRetry(
      "127.0.0.1", port, "select 1;", 10'000, patient);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->first, StatusCode::kOk) << recovered->second;
  (*server)->Shutdown();
}

TEST(ServerGovernanceTest, ErrorRepliesAreNotRetried) {
  auto server = server::Server::Start(server::ServerOptions{});
  ASSERT_TRUE(server.ok());
  server::RetryPolicy policy;
  policy.max_retries = 5;
  policy.base_backoff_ms = 1;
  const uint64_t accepted_before = (*server)->connections_accepted();
  auto reply = server::RoundTripWithRetry(
      "127.0.0.1", (*server)->port(), "selec nonsense;", 10'000, policy);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->first, StatusCode::kParseError);
  EXPECT_EQ((*server)->connections_accepted() - accepted_before, 1u)
      << "a parse error is final; retrying it cannot help";
  (*server)->Shutdown();
}

TEST(ServerGovernanceTest, DrainWithCancellationStaysCleanAndTerminates) {
  // Statements in flight when a cancel-on-drain shutdown lands either
  // complete or abort with the drain verdict — and the server always
  // drains promptly instead of waiting out the statement. The race
  // between "finished first" and "cancelled first" is inherent; the test
  // accepts both outcomes but requires a clean drained server.
  server::ServerOptions options;
  options.session.engine = EngineMode::kExplicit;
  options.cancel_statements_on_drain = true;
  auto server = server::Server::Start(options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  std::string values;
  for (int k = 0; k < 12; ++k) {
    for (const char* p : {"x", "y"}) {
      values += (values.empty() ? "" : ", ") + std::string("(") +
                std::to_string(k) + ", '" + p + "')";
    }
  }
  auto setup = ClientRoundTrip(port, "create table R (K integer, P text);"
                                     "insert into R values " + values + ";");
  ASSERT_EQ(setup.first, StatusCode::kOk);

  // Fire the heavy statement, then shut down while it runs.
  auto conn = server::ConnectTo("127.0.0.1", port);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(server::WriteFrame(
                  *conn, "create table I as select * from R repair by key K;",
                  10'000)
                  .ok());
  (*server)->Shutdown();

  std::string payload;
  auto frame = server::ReadFrame(*conn, &payload, 10'000);
  if (frame.ok() && *frame == server::FrameStatus::kFrame) {
    maybms::StatusCode code;
    std::string text;
    ASSERT_TRUE(server::DecodeResponse(payload, &code, &text).ok());
    if (code != StatusCode::kOk) {
      EXPECT_EQ(code, StatusCode::kDeadlineExceeded) << text;
      EXPECT_NE(text.find("statement cancelled: server draining"),
                std::string::npos)
          << text;
    }
  }
  // Clean EOF and a connection reset are both acceptable too: a drain
  // that lands before the worker reads the request closes WITHOUT
  // reading it (the statement provably never ran), and the unread frame
  // turns the close into a reset on this side.
}

}  // namespace
}  // namespace maybms::isql
