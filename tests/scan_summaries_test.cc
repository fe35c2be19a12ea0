// Worlds assembled from summaries (worlds/decomposed_world_set.cc,
// ScanSummaries): statements whose every scan is row-local — `conf` of
// count/sum, `assert [not] exists` over a row-local subquery, and GROUP
// WORLDS BY a row-local slice, count or sum — still run the shared world
// pipeline, but take each world's answer, verdict and key from one pass's
// per-alternative summaries instead of running SQL in the world.
//  * The explicit engine, which runs SQL in every stored world, is the
//    oracle: the same answers and errors, with the same schema.
//  * The worlds charged to the budget are the pipeline's: every world of
//    the relevant sub-product.
//  * A scan that fails to evaluate on some alternative leaves the
//    statement to SQL in every world, which reports the first failing
//    world's error, or answers when an assert drops those worlds before
//    the grouping query runs.
//  * Answers are byte-identical at threads 1, 2, 4 and 8.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/query_context.h"
#include "isql/session.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using maybms::testing::ExecScript;
using maybms::testing::ExpectResultsIdentical;

SessionOptions Options(EngineMode engine, size_t threads = 0) {
  SessionOptions options;
  options.engine = engine;
  options.threads = threads;
  options.max_display_worlds = 1 << 12;
  return options;
}

// R holds NULLs, a V = 5 on one alternative of key 0 only, and text
// groups. I repairs R by key; C chooses by G (several rows per
// alternative); U is I after an update merged its components into one.
const char* kScript = R"sql(
  create table R (K integer, V integer, W integer, G text);
  insert into R values
    (0, 3, 1, 'x'), (0, 5, 2, 'y'), (0, NULL, 1, 'z'),
    (1, 1, 1, 'y'), (1, 4, 3, 'z'),
    (2, NULL, 1, 'x'), (2, 2, 2, 'y'),
    (3, 7, 1, 'z'),
    (4, -2, 1, 'x'), (4, 6, 1, 'y'), (4, 0, 2, 'z');
  create table S (K integer, V integer);
  insert into S values (0, 1), (1, 2), (2, 3);
)sql";

const char* kUncertain[][2] = {
    {"I", "create table I as select K, V, G from R repair by key K weight W;"},
    {"C", "create table C as select K, V, G from R choice of G;"},
    {"U",
     "create table U as select K, V, G from R repair by key K weight W;"
     "update U set V = V + 1 where K = 4;"},
};

/// The same script on both engines.
class Engines {
 public:
  explicit Engines(const std::string& script) {
    ExecScript(explicit_, std::string(kScript) + script);
    ExecScript(decomposed_, std::string(kScript) + script);
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

  uint64_t NumWorlds() const { return decomposed_.world_set().NumWorlds(); }

 private:
  Session explicit_{Options(EngineMode::kExplicit)};
  Session decomposed_{Options(EngineMode::kDecomposed)};
};

/// Statements of the class over `rel`: conf and quantifier-free
/// aggregates, asserts (negated or not, with NOT NOT), and grouping by a
/// slice, a count or a sum, each with a row-local WHERE.
std::vector<std::string> ClassProbes(const std::string& rel) {
  const std::string from = " from " + rel;
  return {
      "select conf, count(*)" + from + " where V > 2;",
      "select conf, count(V)" + from + ";",
      "select conf, sum(V)" + from + " where G <> 'x';",
      "select sum(V)" + from + " where K < 3;",
      "select count(*)" + from + " where V is null;",
      "select certain K" + from + " assert not exists (select *" + from +
          " where V = 4);",
      "select possible K, V" + from + " assert exists (select K" + from +
          " where K = 0 and V = 3);",
      "select conf, K, V" + from + " assert not not exists (select *" + from +
          " where G = 'y' and K = 4);",
      "select K, V" + from + " where V > 0 assert exists (select *" + from +
          " where V = 1);",
      "select conf, count(*)" + from + " where V > 0 assert exists (select *" +
          from + " where K = 1 and V = 4);",
      "select possible V" + from + " group worlds by (select sum(V)" + from +
          " where K < 2);",
      "select certain K" + from + " group worlds by (select count(*)" + from +
          " where V > 2);",
      "select conf, G" + from + " group worlds by (select V" + from +
          " where K = 0);",
      "select possible sum(V)" + from + " assert exists (select *" + from +
          " where V = 6) group worlds by (select count(V)" + from + ");",
      "select conf, V" + from + " where K > 1 assert exists (select *" + from +
          " where V is null) group worlds by (select G" + from +
          " where K = 2);",
  };
}

TEST(ScanSummariesTest, MatchTheExplicitEngineAndChargeEveryWorld) {
  for (const auto& [rel, script] : kUncertain) {
    Engines engines(script);
    for (const std::string& sql : ClassProbes(rel)) {
      // The pipeline's world charge: the relation's whole sub-product.
      EXPECT_EQ(engines.ExpectSame(sql), engines.NumWorlds()) << sql;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Grouping keys fed as row ids: a key that is empty in some worlds, a sum
// that is NULL in some, and a slice whose rows repeat within a world and
// across alternatives all group as SQL's keys do.
TEST(ScanSummariesTest, GroupedKeysEmptyNullAndDuplicateRows) {
  for (const auto& [rel, script] : kUncertain) {
    Engines engines(script);
    const std::string from = std::string(" from ") + rel;
    for (const std::string& sql : {
             "select conf, K" + from + " group worlds by (select V" + from +
                 " where V = 5);",
             "select possible V" + from + " group worlds by (select sum(V)" +
                 from + " where K = 2);",
             "select certain K" + from + " group worlds by (select sum(V)" +
                 from + " where V is null);",
             "select conf, V" + from + " group worlds by (select G" + from +
                 " where K < 3);",
             "select possible G" + from + " group worlds by (select G, K" +
                 from + " where V > 1 or V is null);",
         }) {
      EXPECT_EQ(engines.ExpectSame(sql), engines.NumWorlds()) << sql;
    }
  }
}

// Integer(3) and Real(3.0) are one row to a combiner, which answers it as
// the first world holding it wrote it; an id stands for one written row,
// so a slice that writes equal rows differently is left to SQL.
TEST(ScanSummariesTest, EqualRowsWrittenDifferentlyMatchSql) {
  Engines engines(kUncertain[0][1]);
  for (const char* sql : {
           "select possible coalesce(V, 3.0) from I "
           "assert exists (select * from I where K = 1);",
           // World 0 holds Integer 1 (key 1) before Real 1.0 (key 2's
           // NULL), but the pass meets key 0's NULL first.
           "select possible coalesce(V, 1.0) from I "
           "assert exists (select * from I where K = 1);",
           "select conf, coalesce(V, 3.0) from I where K = 0 "
           "assert exists (select * from I where K = 0);",
           "select possible K from I "
           "group worlds by (select coalesce(V, 3.0) from I where K = 0);",
       }) {
    engines.ExpectSame(sql);
  }
}

// A scan that fails on one alternative only (V = 5 is one alternative of
// key 0) leaves the statement to SQL in every world.
TEST(ScanSummariesTest, FailingAlternativesFallBackToThePipeline) {
  Engines engines(kUncertain[0][1]);
  for (const char* sql : {
           // the main query, the assert's filter and the key fail: the
           // first failing world's error
           "select conf, count(*) from I where 10 / (V - 5) > 0;",
           "select possible K from I "
           "assert exists (select * from I where 10 / (V - 5) > 0);",
           "select conf, V from I "
           "group worlds by (select sum(V) from I where 1 / (V - 5) > 0);",
           // the assert drops every world where the key fails: an answer
           "select possible K from I "
           "assert not exists (select * from I where V = 5) "
           "group worlds by (select count(*) from I where 1 / (V - 5) > 0);",
           "select conf, K from I "
           "assert not exists (select * from I where V = 5) "
           "group worlds by (select K, V from I where 1 / (V - 5) > 0);",
       }) {
    engines.ExpectSame(sql);
  }
  // Outside the class: still the explicit engine's answers.
  for (const char* sql : {
           "select possible K from I assert exists (select 1 / (V - 5) "
           "from I where K = 0);",
           "select possible K from I assert exists (select * from I, S "
           "where I.K = S.K);",
           "select possible K from I assert exists (select * from I "
           "where K = 0) and exists (select * from I where V = 1);",
           "select conf, max(V) from I;",
           "select possible V from I group worlds by (select min(V) from I);",
           "select possible V from I group worlds by (select distinct K "
           "from I where V > 2);",
       }) {
    engines.ExpectSame(sql);
  }
  // In the class although the main query reads the certain S: its answer
  // is the same in every world.
  engines.ExpectSame(
      "select possible K from S assert exists (select * from I where V = 5);");
}

// The in-process workload's shapes: A is 12 keys x 2 rows (4,096 worlds),
// U 6 keys x 3 rows merged into one 729-alternative component by an
// update. Answers are byte-identical at every thread count.
TEST(ScanSummariesThreadsTest, AnswersAreThreadCountInvariant) {
  std::string script_a =
      "create table A0 (G integer, B integer, W integer); "
      "insert into A0 values ";
  for (int g = 0; g < 12; ++g) {
    for (int j = 0; j < 2; ++j) {
      script_a += std::string(g + j > 0 ? ", " : "") + "(" +
                  std::to_string(g) + ", " +
                  std::to_string(3 + g % 5 + j * (1 + g % 7)) + ", " +
                  std::to_string(1 + (g + j) % 4) + ")";
    }
  }
  script_a +=
      "; create table A as select G, B from A0 repair by key G weight W;";
  std::string script_u =
      "create table U0 (K integer, V integer, W integer); "
      "insert into U0 values ";
  for (int k = 0; k < 6; ++k) {
    for (int j = 0; j < 3; ++j) {
      script_u += std::string(k + j > 0 ? ", " : "") + "(" +
                  std::to_string(k) + ", " +
                  std::to_string(k * 100 + j * 10 + (k * j) % 7) + ", " +
                  std::to_string(1 + (k + 2 * j) % 5) + ")";
    }
  }
  script_u +=
      "; create table U as select K, V from U0 repair by key K weight W;"
      "update U set V = V + 2 where K = 3;";
  const char* kProbes[] = {
      "select conf, count(*) from A where B > 8;",
      "select possible B from A group worlds by (select sum(B) from A "
      "where G < 2);",
      "select conf, G from A group worlds by (select count(*) from A "
      "where B > 9);",
      "select certain K from U assert not exists (select * from U "
      "where V = 111);",
      "select possible K, V from U assert not exists (select * from U "
      "where K = 2 and V = 212);",
      "select conf, K, V from U assert exists (select * from U "
      "where K = 3 and V = 315);",
  };
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    sessions.push_back(
        std::make_unique<Session>(Options(EngineMode::kDecomposed, threads)));
    ExecScript(*sessions.back(), script_a + script_u);
  }
  // The explicit engine enumerates each relation's worlds apart.
  Session oracle_a(Options(EngineMode::kExplicit, 1));
  ExecScript(oracle_a, script_a);
  Session oracle_u(Options(EngineMode::kExplicit, 1));
  ExecScript(oracle_u, script_u);
  for (const char* probe : kProbes) {
    Session& oracle = std::string(probe).find(" A ") != std::string::npos
                          ? oracle_a
                          : oracle_u;
    auto baseline = sessions[0]->Execute(probe);
    ASSERT_TRUE(baseline.ok()) << probe << "\n"
                               << baseline.status().ToString();
    for (size_t t = 1; t < sessions.size(); ++t) {
      auto result = sessions[t]->Execute(probe);
      ASSERT_TRUE(result.ok()) << probe << "\n" << result.status().ToString();
      ExpectResultsIdentical(*baseline, *result,
                             std::string(probe) + " slot " + std::to_string(t));
    }
    auto expected = oracle.Execute(probe);
    ASSERT_TRUE(expected.ok()) << probe << "\n"
                               << expected.status().ToString();
    ExpectResultsIdentical(*expected, *baseline,
                           std::string(probe) + " vs explicit");
  }
}

}  // namespace
}  // namespace maybms
