// Row-level relevance by column ranges (worlds/row_relevance.h): a
// statement leaves out the components whose ranges prove that no
// occurrence's WHERE keeps one of their rows and that none fails there.
//  * Two oracles: the explicit engine, which runs SQL in every stored
//    world, and a twin of each statement whose extra conjunct `K + 0 = K`
//    (arithmetic, so not analysed) keeps every component. The twin's
//    output must be byte-identical, reals bit for bit.
//  * NULLs, REAL and INTEGER in one column, TEXT and BOOLEAN columns, and
//    a component whose values mix classes.
//  * Conjuncts that fail on keys the WHERE would rule out keep their
//    components: the statement reports the same error as the explicit
//    engine.
//  * The quantifier-free listing is not narrowed.
//  * Ranges follow a row-local update, a merge and a paged reopen.
//  * Answers are byte-identical at threads 1, 2, 4 and 8.
//  * On 40 keys the possible GROUP BY and self-join over two keys answer
//    from the 9 worlds of those keys' components.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/query_context.h"
#include "isql/session.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "worlds/decomposed_world_set.h"
#include "worlds/row_relevance.h"

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
  options.max_display_worlds = 1 << 12;
  return options;
}

// Eight keys (864 worlds per relation). V is INTEGER with NULLs, X REAL,
// T TEXT and B BOOLEAN, each with NULLs. N mixes INTEGER and REAL in one
// column, also within a component; M holds TEXT 'x' beside numbers in key
// 0's component. S is certain.
const char* kBase = R"sql(
  create table R (K integer, V integer, X real, T text, B boolean, W integer);
  insert into R values
    (0, 3, 0.5, 'a', true, 1), (0, NULL, 1.5, 'b', false, 2),
    (0, 5, NULL, 'c', NULL, 1),
    (1, 1, 2.0, 'b', true, 1), (1, 4, 2.5, NULL, true, 3),
    (2, NULL, NULL, 'd', false, 1), (2, 2, 3.0, 'e', false, 2),
    (3, 7, -1.0, 'f', true, 1), (3, 8, 4.0, 'g', NULL, 1),
    (3, 9, 4.5, 'h', false, 1),
    (4, -2, 0.0, 'i', true, 1), (4, 6, 5.0, 'j', false, 1),
    (5, 10, 5.5, 'k', true, 1), (5, 0, 6.0, 'a', false, 2),
    (6, 11, 6.5, 'b', NULL, 1), (6, 12, 7.0, 'c', true, 1),
    (6, 13, NULL, 'd', false, 1),
    (7, 14, 7.5, 'e', true, 1), (7, NULL, 8.0, NULL, NULL, 1);
  create table S (K integer, V integer);
  insert into S values (0, 1), (1, 2), (2, 3);
)sql";

const char* kI =
    "create table I as select K, V, X, T, B from R repair by key K weight W;";
const char* kN =
    "create table N as select K, case when V > 4 then V else X end as V "
    "from R repair by key K weight W;";
const char* kM =
    "create table M as select K, case when V = 3 then 'x' else V end as V "
    "from R repair by key K weight W;";

/// Every relation, for the decomposed engine alone.
std::string Script() {
  return std::string(kBase) + kI + kN + kM;
}

/// The answer or error of `sql`, written out exactly: schema, rows,
/// reals as their bits, and per-world probabilities.
std::string Render(Session& session, const std::string& sql) {
  Result<QueryResult> result = session.Execute(sql);
  if (!result.ok()) return "error: " + result.status().ToString();
  const auto table = [](const Table& t) {
    std::string out = t.schema().ToString() + "\n";
    for (const Tuple& row : t.rows()) {
      for (size_t c = 0; c < row.size(); ++c) {
        const Value& v = row.value(c);
        out += v.type() == DataType::kReal
                   ? "r" + std::to_string(std::bit_cast<uint64_t>(v.AsReal()))
                   : v.ToString();
        out += c + 1 < row.size() ? " | " : "\n";
      }
    }
    return out;
  };
  switch (result->kind()) {
    case QueryResult::Kind::kTable:
      return table(result->table());
    case QueryResult::Kind::kWorlds: {
      std::string out;
      for (const auto& [probability, world] : result->worlds()) {
        out += std::to_string(std::bit_cast<uint64_t>(probability)) + ":\n" +
               table(world);
      }
      return out;
    }
    default:
      return "other";
  }
}

/// A statement and its twin: the same statement with `guard`, a conjunct
/// the analysis does not read, ANDed to the WHERE of `where`.
struct Probe {
  std::string sql;
  std::string twin;
};

Probe Guarded(const std::string& head, const std::string& where,
              const std::string& tail = "",
              const std::string& guard = "K + 0 = K") {
  return {head + " where " + where + tail + ";",
          head + " where (" + where + ") and " + guard + tail + ";"};
}

std::vector<Probe> Probes() {
  return {
      // row-local slices under each quantifier
      Guarded("select possible K, V from I", "K between 2 and 3"),
      Guarded("select certain K from I", "K = 3"),
      Guarded("select conf, K, V from I", "K in (1, 5, 9)"),
      Guarded("select conf, K, T from I", "T = 'a'"),
      Guarded("select possible K, B from I", "B = true and K > 4"),
      Guarded("select possible K, X from I", "X >= 5 or X is null"),
      Guarded("select certain K from I", "not (K < 6)"),
      Guarded("select conf, K, V from I", "V is null"),
      Guarded("select conf, K, V from I", "V is not null and K <= 1"),
      Guarded("select possible K, V from I", "K <> 3 and K < 2"),
      Guarded("select possible K from I", "K = -1"),
      Guarded("select possible K, V from I", "V = NULL"),
      Guarded("select possible K from I", "K in (2, NULL)"),
      Guarded("select conf, K from I", "K not in (2, 3)"),
      Guarded("select possible K from I", "V > 2.5 and V < 7"),
      Guarded("select certain V from I", "X < 1.0"),
      Guarded("select possible K from I", "T >= 'h' or T < 'b'"),
      Guarded("select conf, K from I", "V < K or K = 6"),
      Guarded("select conf from I", "K = 1"),
      Guarded("select conf from I", "K = 99"),
      // closed-form count and sum
      Guarded("select possible count(*) from I", "K < 2"),
      Guarded("select certain count(V) from I", "K >= 6"),
      Guarded("select possible sum(V) from I", "K between 1 and 2"),
      Guarded("select certain count(*) from I", "K = 99"),
      Guarded("select possible sum(V) from I", "K > 100"),
      // the pipeline under possible/certain
      Guarded("select possible K, sum(V) from I", "K < 2", " group by K"),
      Guarded("select certain K, count(*) from I", "T > 'e'", " group by K"),
      Guarded("select possible max(V) from I", "K > 5"),
      Guarded("select possible K, V from I", "K < 2", " order by V limit 2"),
      Guarded("select possible I1.V from I I1, I I2",
              "I1.K = 1 and I2.K = 2 and I1.V = I2.V", "",
              "I1.K + 0 = I1.K"),
      Guarded("select certain I1.K, I2.V from I I1, I I2",
              "I1.K = 1 and I2.K = 2 and I1.V < I2.V", "",
              "I2.K + 0 = I2.K"),
      {"select possible K from S where K in "
       "(select K from I where V > 10);",
       "select possible K from S where K in "
       "(select K from I where V > 10 and K + 0 = K);"},
      {"select possible K, V from I where K < 2 "
       "union select K, V from I where K > 6;",
       "select possible K, V from I where K < 2 and K + 0 = K "
       "union select K, V from I where K > 6 and K + 0 = K;"},
      {"select certain K from S where exists "
       "(select * from I where I.K = 7 and I.V = 14);",
       "select certain K from S where exists "
       "(select * from I where I.K = 7 and I.V = 14 and I.K + 0 = I.K);"},
      // mixed numbers; a component mixing classes
      Guarded("select possible K, V from N", "V >= 5 and V < 6.5"),
      Guarded("select conf, K, V from N", "V = 6"),
      Guarded("select possible K, V from M", "K = 1 and V = 4"),
      Guarded("select possible K, V from M", "K > 2 and V > 8"),
      // the quantifier-free listing reads every component it keeps rows of
      Guarded("select K, V from I", "K between 2 and 3"),
      Guarded("select K from I", "K = 99"),
  };
}

// Statements that fail only on rows of keys the rest of the WHERE rules
// out: the same error as the explicit engine, since such conjuncts are
// not analysed (arithmetic) or fail to compare on the component.
const char* kErrors[] = {
    "select possible K from I where 10 / V > 1 and K < 3;",
    "select possible K from I where V / (K - 5) > 0 and K < 2;",
    "select certain K, count(*) from I where 10 / V > 1 and K < 3 "
    "group by K;",
    "select possible K from M where V < 100 and K > 2;",
    "select possible count(*) from M where V < 100 and K > 2;",
    "select certain K from I where T = 5 and K < 2;",
    "select conf, K from I where B < 1 and K = 1;",
};

class Engines {
 public:
  explicit Engines(const std::string& script, size_t threads = 0)
      : explicit_(Options(EngineMode::kExplicit, 1)),
        decomposed_(Options(EngineMode::kDecomposed, threads)) {
    ExecScript(explicit_, script);
    ExecScript(decomposed_, script);
  }

  Session& decomposed() { return decomposed_; }

  /// Runs `script` on both engines.
  void Run(const std::string& script) {
    ExecScript(explicit_, script);
    ExecScript(decomposed_, script);
  }

  /// The explicit engine's answer or error. Its confidences add world
  /// probabilities, the closed forms multiply per component: they agree
  /// to rounding.
  void ExpectSameAsExplicit(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto expected = explicit_.Execute(sql);
    auto actual = decomposed_.Execute(sql);
    ASSERT_EQ(expected.ok(), actual.ok())
        << "explicit: " << expected.status().ToString()
        << "\ndecomposed: " << actual.status().ToString();
    if (!expected.ok()) {
      EXPECT_EQ(expected.status().ToString(), actual.status().ToString());
      return;
    }
    ASSERT_EQ(expected->kind(), actual->kind());
    if (expected->kind() == QueryResult::Kind::kTable) {
      ExpectTablesIdentical(expected->table(), actual->table(), sql, 1e-12);
    } else {
      ExpectSameDistribution(WorldDistribution(expected->worlds()),
                             WorldDistribution(actual->worlds()), 1e-12);
    }
  }

 private:
  Session explicit_;
  Session decomposed_;
};

/// One pair of engines per uncertain relation: the explicit engine holds
/// every world of the world-set, which for all three would be 864^3.
class Oracles {
 public:
  Oracles()
      : i_(std::string(kBase) + kI),
        n_(std::string(kBase) + kN),
        m_(std::string(kBase) + kM) {}

  /// The engines of the relation `sql` reads.
  Engines& For(const std::string& sql) {
    if (sql.find(" from N") != std::string::npos) return n_;
    if (sql.find(" from M") != std::string::npos) return m_;
    return i_;
  }

 private:
  Engines i_;
  Engines n_;
  Engines m_;
};

TEST(RangePruningTest, MatchesTheExplicitEngineAndTheUnprunedTwin) {
  Oracles oracles;
  Session session(Options(EngineMode::kDecomposed));
  ExecScript(session, Script());
  for (const Probe& probe : Probes()) {
    oracles.For(probe.sql).ExpectSameAsExplicit(probe.sql);
    EXPECT_EQ(Render(session, probe.sql), Render(session, probe.twin))
        << probe.sql;
  }
}

TEST(RangePruningTest, ConjunctsThatFailOnRuledOutKeysStillFail) {
  Oracles oracles;
  for (const char* sql : kErrors) {
    Engines& engines = oracles.For(sql);
    engines.ExpectSameAsExplicit(sql);
    EXPECT_EQ(Render(engines.decomposed(), sql).rfind("error: ", 0), 0u)
        << sql;
  }
}

/// The keys (the K of each component's first row) whose components the
/// analysis of `sql` keeps for `relation`, or every key when it keeps the
/// relation whole.
std::set<int64_t> KeptKeys(const Session& session, const std::string& sql,
                           const std::string& relation) {
  const auto& wsd =
      dynamic_cast<const worlds::DecomposedWorldSet&>(session.world_set());
  auto stmt = sql::Parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  const worlds::RowRelevance rows(
      static_cast<const sql::SelectStatement&>(**stmt), wsd.certain_part());
  const worlds::RangeTests* tests = rows.TestsFor(relation);
  std::set<int64_t> kept;
  for (size_t i : wsd.ComponentsOf(relation)) {
    const worlds::Component& component = *wsd.components()[i];
    if (tests != nullptr && !tests->MayKeep(*component.RangesOf(relation))) {
      continue;
    }
    kept.insert(component.alternatives[0]
                    .TuplesFor(relation)
                    ->front()
                    .value(0)
                    .AsInteger());
  }
  return kept;
}

TEST(RangePruningTest, TheAnalysisKeepsWhatTheRangesCannotRuleOut) {
  Session session(Options(EngineMode::kDecomposed));
  ExecScript(session, Script() +
                          "create table W0 (K integer, V integer);"
                          "insert into W0 values (0, 9007199254740992),"
                          " (1, 9007199254740993);"
                          "create table W as select * from W0 "
                          "repair by key K;");
  const std::set<int64_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  struct Case {
    const char* sql;
    const char* relation;
    std::set<int64_t> kept;
  };
  const Case kCases[] = {
      {"select * from I where K between 2 and 3;", "i", {2, 3}},
      {"select * from I where K = 3 or K >= 7;", "i", {3, 7}},
      {"select * from I where not (K <> 4);", "i", {4}},
      {"select * from I where K in (1, 5, 9);", "i", {1, 5}},
      {"select * from I where K not in (1, 5);", "i", {0, 2, 3, 4, 6, 7}},
      {"select * from I where -K > -2;", "i", all},  // arithmetic
      {"select * from I where K > -1 and K < 1;", "i", {0}},
      // NULLs: V is NULL in keys 0, 2 and 7 only
      {"select * from I where V is null;", "i", {0, 2, 7}},
      {"select * from I where V is not null;", "i", all},
      {"select * from I where not (V is not null);", "i", {0, 2, 7}},
      {"select * from I where V = NULL;", "i", {}},
      {"select * from I where K in (3, NULL);", "i", {3}},
      // REAL against INTEGER and INTEGER against REAL, exactly
      {"select * from I where V > 13.5;", "i", {7}},
      {"select * from I where X = 2;", "i", {1, 3, 4}},
      {"select * from I where X < 0;", "i", {3}},
      // 2^53 + 1 is no double: it compares above the REAL 2^53
      {"select * from W where V > 9007199254740992.0;", "w", {1}},
      {"select * from W where V = 9007199254740992.0;", "w", {0}},
      {"select * from W where V < 9007199254740993;", "w", {0}},
      // TEXT and BOOLEAN
      {"select * from I where T = 'k';", "i", {5}},
      {"select * from I where T > 'h';", "i", {4, 5}},
      {"select * from I where B = true and K < 3;", "i", {0, 1}},
      {"select * from I where B = false and K > 0 and K < 3;", "i", {2}},
      // values of another class may fail: kept
      {"select * from I where T = 5 and K = 1;", "i", all},
      {"select * from I where V = 'x' and K = 1;", "i", all},
      // a column comparison decides nothing, but fails on no component
      {"select * from I where V < K and K = 2;", "i", {2}},
      {"select * from I where V < T and K = 2;", "i", all},
      // key 0 mixes TEXT and numbers: kept wherever V is compared
      {"select * from M where V = 4 and K = 1;", "m", {0, 1}},
      {"select * from M where K = 1;", "m", {1}},
      {"select * from N where V >= 5 and V < 6.5;", "n", {0, 4, 5}},
      // no conjunct of its own, or not analysed: every component
      {"select * from I;", "i", all},
      {"select * from I where K + 0 = 3;", "i", all},
      {"select * from I where K in (select K from S);", "i", all},
      {"select * from I, S where S.K = 1;", "i", all},
      {"select * from S where K in (select K from I where K = 6);", "i", {6}},
      {"select * from I I1, I I2 where I1.K = 1 and I2.K = 5 "
       "and I1.V = I2.V;",
       "i",
       {1, 5}},
      {"select * from I I1, I I2 where I1.K = 1 and I2.K = 5 "
       "and I1.V = I2.T;",
       "i",
       all},
      {"select * from I I1, I I2 where I1.K = 1;", "i", all},
      {"select * from I I1 join I I2 on I1.K = I2.K where I1.K = 1;", "i",
       all},
      {"select * from I where K = 1 union select * from I where K = 2;", "i",
       {1, 2}},
      {"select * from S where exists (select * from I where I.K = S.K);",
       "i",
       all},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(KeptKeys(session, c.sql, c.relation), c.kept) << c.sql;
  }
}

/// Every component's ranges equal those ShareComponent computes afresh,
/// and pruning statements still match the explicit engine.
void ExpectFreshRanges(const Session& session, const std::string& context) {
  const auto& wsd =
      dynamic_cast<const worlds::DecomposedWorldSet&>(session.world_set());
  for (const worlds::ComponentHandle& c : wsd.components()) {
    worlds::Component copy;
    copy.alternatives = c->alternatives;
    const worlds::ComponentHandle fresh = worlds::ShareComponent(copy);
    ASSERT_EQ(c->ranges.size(), fresh->ranges.size()) << context;
    const auto text = [](const Value* v) {
      return v == nullptr ? std::string("none") : v->ToString();
    };
    for (const auto& [relation, ranges] : fresh->ranges) {
      const worlds::RelationRanges* held = c->RangesOf(relation);
      ASSERT_NE(held, nullptr) << context << ": " << relation;
      ASSERT_EQ(held->size(), ranges.size()) << context;
      for (size_t i = 0; i < ranges.size(); ++i) {
        EXPECT_EQ((*held)[i].value_class, ranges[i].value_class) << context;
        EXPECT_EQ((*held)[i].has_null, ranges[i].has_null) << context;
        EXPECT_EQ(text((*held)[i].min), text(ranges[i].min)) << context;
        EXPECT_EQ(text((*held)[i].max), text(ranges[i].max)) << context;
      }
    }
  }
}

TEST(RangePruningTest, RangesFollowWritesMergesAndReopens) {
  const char* kAfter[] = {
      "select possible K, V from I where V > 100;",
      "select certain K from I where V between 50 and 60;",
      "select possible K, sum(V) from I where V > 20 group by K;",
      "select conf, K, V from I where V < 0;",
      "select possible count(*) from I where V >= 57;",
  };
  Engines engines(std::string(kBase) + kI);
  ExpectFreshRanges(engines.decomposed(), "created");
  const char* kWrites[] = {
      // a row-local update moves key 3's values above 100
      "update I set V = V + 100 where K = 3;",
      // a row-local delete and insert
      "delete from I where V < 0;",
      "insert into I values (8, 57, 1.0, 'z', true);",
      // not row-local: merges the components into one
      "update I set V = V + 50 where K in (select K from S where V = 2);",
  };
  for (const char* write : kWrites) {
    engines.Run(write);
    ExpectFreshRanges(engines.decomposed(), write);
    for (const char* sql : kAfter) engines.ExpectSameAsExplicit(sql);
    if (::testing::Test::HasFailure()) return;
  }
  // A materialized pipeline answer replaces components with one.
  const char* kMerge =
      "create table J as select K, V from I "
      "assert exists (select * from I where V = 54);";
  engines.Run(kMerge);
  ExpectFreshRanges(engines.decomposed(), kMerge);
  for (const char* sql : kAfter) engines.ExpectSameAsExplicit(sql);

  // A paged store reopens to the same ranges and answers.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("maybms_range_pruning_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  SessionOptions options = Options(EngineMode::kDecomposed);
  options.storage = StorageMode::kPaged;
  options.storage_dir = dir.string();
  std::vector<std::string> live;
  {
    Session session(options);
    ExecScript(session, Script());
    ExecScript(session, "update I set V = V + 100 where K = 3;");
    for (const char* sql : kAfter) live.push_back(Render(session, sql));
  }
  {
    Session reopened(options);
    ExpectFreshRanges(reopened, "reopened");
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(Render(reopened, kAfter[i]), live[i]) << kAfter[i];
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(RangePruningTest, AnswersAreThreadCountInvariant) {
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    sessions.push_back(
        std::make_unique<Session>(Options(EngineMode::kDecomposed, threads)));
    ExecScript(*sessions.back(), Script());
  }
  for (const Probe& probe : Probes()) {
    const std::string baseline = Render(*sessions[0], probe.sql);
    for (size_t t = 1; t < sessions.size(); ++t) {
      EXPECT_EQ(Render(*sessions[t], probe.sql), baseline)
          << probe.sql << " slot " << t;
    }
  }
}

/// `keys` keys of three rows each, the same rows for a key whatever
/// `keys` is.
std::string WideScript(int keys) {
  std::string script =
      "create table R (K integer, V integer, W integer); "
      "insert into R values ";
  for (int k = 0; k < keys; ++k) {
    for (int j = 0; j < 3; ++j) {
      script += std::string(k + j > 0 ? ", " : "") + "(" + std::to_string(k) +
                ", " + std::to_string((k * 7 + j * 3) % 10) + ", " +
                std::to_string(1 + (k + j) % 3) + ")";
    }
  }
  return script +
         "; create table I as select K, V from R repair by key K weight W;";
}

// The statements of ROADMAP item 1 read two keys: on 40 keys they answer
// from those keys' 9 worlds, as the explicit engine does on 8.
TEST(RangePruningTest, TwoKeyStatementsAnswerOnFortyKeys) {
  Engines eight(WideScript(8));
  Session forty(Options(EngineMode::kDecomposed));
  ExecScript(forty, WideScript(40));
  for (const char* sql : {
           "select possible K, sum(V) from I where K < 2 group by K;",
           "select possible I1.V from I I1, I I2 where I1.K = 1 and "
           "I2.K = 2 and I1.V = I2.V;",
           "select certain I1.V, I2.V from I I1, I I2 where I1.K = 1 and "
           "I2.K = 2 and I1.V <= I2.V;",
       }) {
    eight.ExpectSameAsExplicit(sql);
    uint64_t worlds = 0;
    std::string answer;
    {
      base::QueryContext ctx{base::GovernanceLimits{}};
      base::QueryContextScope scope(&ctx);
      answer = Render(forty, sql);
      worlds = ctx.worlds_charged();
    }
    EXPECT_EQ(worlds, 9u) << sql;
    EXPECT_EQ(answer, Render(eight.decomposed(), sql)) << sql;
  }
  // conf through the pipeline is not narrowed: still over the cap.
  EXPECT_EQ(
      Render(forty, "select conf, count(*) from I where K < 2;").rfind(
          "error: ", 0),
      0u);
}

}  // namespace
}  // namespace maybms
