// The shared world pipeline (worlds/world_pipeline.h) seen through both
// engines:
//  * cross-engine bit identity: when both engines hand the pipeline the
//    same worlds in the same order (a session whose only uncertain
//    relation comes from one repair by key / choice of over a certain
//    table), assert, group worlds by and join probes must agree exactly —
//    answers, confidences and group probabilities at tolerance 0, at
//    threads 1 and 4;
//  * behaviour the pipeline keeps: an assert in `create table T as ...`
//    may name T, a grouping query may name __result, and a plain select
//    listing fewer worlds than it evaluates still reports a later world's
//    error;
//  * statement shapes both engines reject the same way (ValidateWorldOps).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "isql/session.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using maybms::testing::EngineTest;
using maybms::testing::ExecScript;
using maybms::testing::ExpectResultsIdentical;
using maybms::testing::ExpectSameDistribution;
using maybms::testing::WorldDistribution;

// ---------------------------------------------------------------------------
// Cross-engine bit identity on the shared path
// ---------------------------------------------------------------------------

struct SeededCase {
  std::string setup;
  std::vector<std::string> probes;
  /// An update that merges I's components into one, and the probes run
  /// after it.
  std::string update;
  std::vector<std::string> merged_probes;
};

/// R(K, V, W) with 4-6 keys of 1-3 rows, S(K, V) certain, and I from one
/// repair by key (even seeds) or choice of (odd seeds) over R. Probes run
/// the assert, group worlds by and join shapes through the pipeline; on
/// the decomposed engine the row-local ones take their worlds from
/// per-alternative summaries. After an update merges I's components into
/// one, both engines still hand the pipeline the same worlds in the same
/// order.
SeededCase MakeCase(uint32_t seed) {
  std::mt19937 rng(seed);
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  SeededCase c;
  std::vector<std::pair<int, int>> rows;
  const int keys = uniform(4, 6);
  for (int k = 0; k < keys; ++k) {
    const int n = uniform(1, 3);
    for (int j = 0; j < n; ++j) rows.emplace_back(k, uniform(0, 9));
  }
  c.setup = "create table R (K integer, V integer, W integer);\n"
            "insert into R values ";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) c.setup += ", ";
    c.setup += "(" + std::to_string(rows[i].first) + ", " +
               std::to_string(rows[i].second) + ", " +
               std::to_string(uniform(1, 4)) + ")";
  }
  c.setup += ";\ncreate table S (K integer, V integer);\ninsert into S values ";
  for (int k = 0; k < 8; ++k) {
    if (k > 0) c.setup += ", ";
    c.setup += "(" + std::to_string(k) + ", " + std::to_string(uniform(0, 9)) +
               ")";
  }
  c.setup += seed % 2 == 0
                 ? ";\ncreate table I as select K, V from R repair by key K "
                   "weight W;\n"
                 : ";\ncreate table I as select K, V from R choice of V "
                   "weight W;\n";

  const auto& [k, v] = rows[uniform(0, static_cast<int>(rows.size()) - 1)];
  const std::string ks = std::to_string(k);
  const std::string vs = std::to_string(v);
  const std::string cs = std::to_string(uniform(0, 9));
  c.probes = {
      "select conf, K, V from I assert exists (select * from I where K = " +
          ks + " and V = " + vs + ");",
      "select possible K, V from I assert not exists (select * from I "
      "where V = " + cs + ");",
      "select certain K from I assert exists (select * from I, S where "
      "I.K = S.K and I.V <= S.V);",
      "select conf, K from I group worlds by (select V from I where K = " +
          ks + ");",
      "select possible V from I group worlds by (select count(*) from I "
      "where V > " + cs + ");",
      "select conf, V from I assert exists (select * from I where V = " +
          vs + ") group worlds by (select sum(V) from I);",
      "select conf, I.K, S.V from I, S where I.K = S.K and I.V < S.V;",
      "select conf, count(*) from I where V > " + cs + ";",
      "select certain sum(V) from I;",
      "select I.K, S.V from I join S on I.K = S.K where I.V >= " + cs + ";",
      "select possible V from I group worlds by (select sum(V) from I "
      "where K < " + ks + ");",
      "select certain K from I group worlds by (select count(*) from I "
      "where V > " + cs + ");",
      "select conf, count(*) from I where V > " + cs +
          " assert exists (select * from I where K = " + ks + " and V = " +
          vs + ");",
      "select K, V from I assert exists (select * from I where V = " + vs +
          ");",
      "select sum(V) from I where K <> " + ks +
          " assert not exists (select K from I where V = " + cs + ");",
  };
  const std::string shifted = std::to_string(v + 1);
  c.update = "update I set V = V + 1 where K = " + ks + ";";
  c.merged_probes = {
      "select certain K from I assert not exists (select * from I where "
      "V = " + shifted + ");",
      "select conf, K, V from I assert exists (select * from I where K = " +
          ks + " and V = " + shifted + ");",
      "select possible V from I group worlds by (select sum(V) from I "
      "where K = " + ks + ");",
      "select conf, count(*) from I where V > " + cs + ";",
  };
  return c;
}

class CrossEngineBitIdentityTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(CrossEngineBitIdentityTest, PipelineProbesAgreeExactly) {
  const SeededCase c = MakeCase(GetParam());
  struct Run {
    EngineMode engine;
    size_t threads;
  };
  const std::vector<Run> runs = {{EngineMode::kExplicit, 1},
                                 {EngineMode::kDecomposed, 1},
                                 {EngineMode::kExplicit, 4},
                                 {EngineMode::kDecomposed, 4}};
  std::vector<std::unique_ptr<Session>> sessions;
  for (const Run& run : runs) {
    SessionOptions options;
    options.engine = run.engine;
    options.threads = run.threads;
    options.max_display_worlds = 4096;
    sessions.push_back(std::make_unique<Session>(options));
    ExecScript(*sessions.back(), c.setup);
  }
  const auto expect_identical = [&](const std::vector<std::string>& probes) {
    for (const std::string& probe : probes) {
      auto baseline = sessions[0]->Execute(probe);
      for (size_t r = 1; r < runs.size(); ++r) {
        const std::string context =
            probe + " [run " + std::to_string(r) + " vs explicit threads=1]";
        auto result = sessions[r]->Execute(probe);
        ASSERT_EQ(baseline.ok(), result.ok())
            << context << ": "
            << (baseline.ok() ? result.status() : baseline.status())
                   .ToString();
        if (!baseline.ok()) {
          EXPECT_EQ(baseline.status().ToString(), result.status().ToString())
              << context;
          continue;
        }
        ExpectResultsIdentical(*baseline, *result, context);
      }
    }
  };
  expect_identical(c.probes);
  if (::testing::Test::HasFatalFailure()) return;
  for (auto& session : sessions) ExecScript(*session, c.update);
  expect_identical(c.merged_probes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineBitIdentityTest,
                         ::testing::Range(0u, 40u));

// ---------------------------------------------------------------------------
// Behaviour the pipeline keeps
// ---------------------------------------------------------------------------

class WorldPipelineTest : public EngineTest {};
MAYBMS_INSTANTIATE_ENGINES(WorldPipelineTest);

constexpr char kRepairSource[] = R"sql(
  create table R (K integer, V integer);
  insert into R values (1, 10), (1, 12), (2, 11), (2, 12), (3, 12), (3, 13);
)sql";

TEST(WorldPipelineCrossEngineTest, CreateTableAssertMayNameItsTarget) {
  // The assert sees the per-world answer under the new table's name: of
  // the 8 repairs, only (10, 11, 13) has no V = 12, so 7 worlds survive.
  const char* kCreate =
      "create table T as select K, V from R repair by key K "
      "assert exists (select * from T where V = 12);";
  std::vector<std::unique_ptr<Session>> sessions;
  for (EngineMode engine : {EngineMode::kExplicit, EngineMode::kDecomposed}) {
    SessionOptions options;
    options.engine = engine;
    options.max_display_worlds = 4096;
    sessions.push_back(std::make_unique<Session>(options));
    ExecScript(*sessions.back(), kRepairSource);
    ExecScript(*sessions.back(), kCreate);
  }
  auto explicit_worlds = sessions[0]->Execute("select * from T;");
  auto decomposed_worlds = sessions[1]->Execute("select * from T;");
  ASSERT_TRUE(explicit_worlds.ok()) << explicit_worlds.status().ToString();
  ASSERT_TRUE(decomposed_worlds.ok()) << decomposed_worlds.status().ToString();
  EXPECT_EQ(explicit_worlds->worlds().size(), 7u);
  ExpectSameDistribution(WorldDistribution(explicit_worlds->worlds()),
                         WorldDistribution(decomposed_worlds->worlds()),
                         1e-12);

  auto explicit_conf = sessions[0]->Execute("select conf, K, V from T;");
  auto decomposed_conf = sessions[1]->Execute("select conf, K, V from T;");
  ASSERT_TRUE(explicit_conf.ok()) << explicit_conf.status().ToString();
  ASSERT_TRUE(decomposed_conf.ok()) << decomposed_conf.status().ToString();
  maybms::testing::ExpectTablesIdentical(explicit_conf->table(),
                                         decomposed_conf->table(), "conf",
                                         /*real_tolerance=*/1e-12);
  // (1, 10) is in 4 repairs, one of which the assert dropped.
  ASSERT_GT(explicit_conf->table().num_rows(), 0u);
  EXPECT_NEAR(explicit_conf->table().row(0).value(2).AsReal(), 3.0 / 7.0,
              1e-12);
}

TEST(WorldPipelineCrossEngineTest, GroupingQueryMayNameTheResult) {
  const char* kSetup =
      "create table I as select K, V from R repair by key K;";
  const char* kProbe =
      "select possible K, V from I group worlds by "
      "(select count(*) from __result where V = 12);";
  std::vector<QueryResult> results;
  for (EngineMode engine : {EngineMode::kExplicit, EngineMode::kDecomposed}) {
    SessionOptions options;
    options.engine = engine;
    Session session(options);
    ExecScript(session, kRepairSource);
    ExecScript(session, kSetup);
    auto result = session.Execute(kProbe);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(std::move(result).value());
  }
  // Zero to three keys choose V = 12.
  ASSERT_EQ(results[0].groups().size(), 4u);
  ExpectResultsIdentical(results[0], results[1], kProbe);
}

TEST_P(WorldPipelineTest, ListingCapDoesNotHideALaterWorldsError) {
  // Worlds in product order: (1,1)(2,1), (1,2)(2,1), then two worlds with
  // (2, 0), whose 10 / V fails. Only two worlds are listed, but every
  // world is evaluated, so the statement fails.
  SessionOptions options = Options();
  options.max_display_worlds = 2;
  Session session(options);
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1, 1), (1, 2), (2, 1), (2, 0);
    create table S (K integer);
    insert into S values (1), (2);
    create table I as select K, V from R repair by key K;
  )sql");
  for (const char* probe :
       {"select I.K, 10 / I.V from I, S where I.K = S.K;",
        "select K, 10 / V from I;"}) {
    auto result = session.Execute(probe);
    ASSERT_FALSE(result.ok()) << probe;
    EXPECT_NE(result.status().message().find("division by zero"),
              std::string::npos)
        << probe << ": " << result.status().ToString();
  }
  // With no failing world past the cap, the listing is truncated.
  auto listed = session.Execute("select I.K, I.V from I, S where I.K = S.K;");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(listed->worlds().size(), 2u);
  EXPECT_TRUE(listed->truncated());
}

// ---------------------------------------------------------------------------
// Shapes rejected alongside repair by key / choice of
// ---------------------------------------------------------------------------

TEST_P(WorldPipelineTest, ClausesTheProjectionWouldIgnoreAreRejected) {
  Session session(Options());
  ExecScript(session, kRepairSource);
  for (const char* stmt : {
           "select distinct V from R repair by key K;",
           "select V from R order by V desc limit 1 repair by key K;",
           "select V from R limit 2 choice of K;",
           "select K from R group by K repair by key K;",
           "select V from R having V > 1 choice of V;",
           "select conf, V from R order by V repair by key K;",
           "create table X as select distinct V from R choice of K;",
       }) {
    auto result = session.Execute(stmt);
    ASSERT_FALSE(result.ok()) << stmt;
    EXPECT_EQ(result.status().code(), StatusCode::kUnsupported) << stmt;
    EXPECT_NE(result.status().message().find(
                  "DISTINCT, GROUP BY, HAVING, ORDER BY and LIMIT cannot be "
                  "combined with repair by key / choice of"),
              std::string::npos)
        << stmt << ": " << result.status().ToString();
  }
  // The failed statements changed nothing.
  EXPECT_FALSE(session.Execute("select * from X;").ok());
  auto plain = session.Execute("select distinct V from R order by V limit 2;");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
}

}  // namespace
}  // namespace maybms
