// White-box tests of the DecomposedWorldSet: component structure created
// by the I-SQL operations, the selection/projection fast path (no
// merging), and the compactness guarantees that are the point of WSDs.

#include "worlds/decomposed_world_set.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "base/string_util.h"

#include "isql/session.h"
#include "tests/test_util.h"

namespace maybms::worlds {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using maybms::testing::Exec;
using maybms::testing::ExecScript;

const DecomposedWorldSet& Wsd(const Session& session) {
  return static_cast<const DecomposedWorldSet&>(session.world_set());
}

SessionOptions DecomposedOptions() {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  options.max_display_worlds = 1 << 20;
  return options;
}

TEST(DecomposedWorldSetTest, RepairCreatesOneComponentPerKeyGroup) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 3u);  // key groups a1, a2, a3
  EXPECT_EQ(wsd.NumWorlds(), 4u);       // 2 * 2 * 1
}

TEST(DecomposedWorldSetTest, ChoiceOfCreatesSingleComponent) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table P as select * from S choice of E;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 1u);
  EXPECT_EQ(wsd.NumWorlds(), 2u);
}

TEST(DecomposedWorldSetTest, SelectionFastPathPreservesComponents) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  ASSERT_EQ(Wsd(session).num_components(), 3u);
  // A selection over I decomposes per alternative: no merge, still three
  // components afterwards, worlds unchanged.
  Exec(session, "create table D as select A, B from I where B >= 15;");
  EXPECT_EQ(Wsd(session).num_components(), 3u);
  EXPECT_EQ(Wsd(session).NumWorlds(), 4u);
}

TEST(DecomposedWorldSetTest, AggregateQueryMergesOnlyRelevantComponents) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  Exec(session, "create table P as select * from S choice of E;");
  ASSERT_EQ(Wsd(session).num_components(), 4u);
  // sum(B) over I requires merging I's three components, but P's
  // component must remain untouched.
  Exec(session, "create table Sums as select sum(B) as S from I;");
  EXPECT_EQ(Wsd(session).num_components(), 2u)
      << "I's 3 components merged into 1; P's untouched";
  EXPECT_EQ(Wsd(session).NumWorlds(), 8u);  // 4 (merged) * 2 (P)
}

TEST(DecomposedWorldSetTest, QuantifierQueryLeavesStructureUnchanged) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  // possible/certain/conf produce certain answers: materializing them
  // must not merge anything.
  Exec(session, "create table PB as select possible B from I;");
  Exec(session, "create table CB as select certain B from I;");
  Exec(session, "create table KB as select conf, B from I;");
  EXPECT_EQ(Wsd(session).num_components(), 3u);
}

TEST(DecomposedWorldSetTest, ExponentialWorldsLinearSpace) {
  // The ICDE'07 headline: n key groups of g alternatives = g^n worlds in
  // O(n*g) components. 40 groups of 2 would be ~10^12 worlds.
  Session session(DecomposedOptions());
  Exec(session, "create table R (K integer, V integer);");
  std::string values;
  for (int k = 0; k < 40; ++k) {
    for (int v = 0; v < 2; ++v) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  Exec(session, "insert into R values " + values + ";");
  Exec(session, "create table I as select * from R repair by key K;");

  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 40u);
  EXPECT_NEAR(wsd.Log10NumWorlds(), 40 * std::log10(2.0), 1e-9);
  EXPECT_EQ(wsd.NumWorlds(), uint64_t{1} << 40);

  // Tuple-level confidence over 2^40 worlds via the closed form — instant.
  QueryResult conf = Exec(session, "select conf, K, V from I where K = 7;");
  ASSERT_EQ(conf.table().num_rows(), 2u);
  EXPECT_NEAR(conf.table().row(0).value(2).AsReal(), 0.5, 1e-12);
}

TEST(DecomposedWorldSetTest, NumWorldsSaturatesButLogDoesNot) {
  Session session(DecomposedOptions());
  Exec(session, "create table R (K integer, V integer);");
  std::string values;
  for (int k = 0; k < 300; ++k) {
    for (int v = 0; v < 2; ++v) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  Exec(session, "insert into R values " + values + ";");
  Exec(session, "create table I as select * from R repair by key K;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.NumWorlds(), std::numeric_limits<uint64_t>::max());
  EXPECT_NEAR(wsd.Log10NumWorlds(), 300 * std::log10(2.0), 1e-6);
}

TEST(DecomposedWorldSetTest, MaterializeWorldsEnumeratesProduct) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  bool truncated = true;
  auto worlds = Wsd(session).MaterializeWorlds(100, &truncated);
  ASSERT_TRUE(worlds.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(worlds->size(), 4u);
  double total = 0;
  for (const World& w : *worlds) {
    total += w.probability;
    EXPECT_TRUE(w.db.HasRelation("I"));
    EXPECT_TRUE(w.db.HasRelation("R"));
    auto i = w.db.GetRelation("I");
    EXPECT_EQ((*i)->num_rows(), 3u);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);

  auto capped = Wsd(session).MaterializeWorlds(2, &truncated);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(truncated);
  EXPECT_EQ(capped->size(), 2u);
}

TEST(DecomposedWorldSetTest, AssertMergesAndRenormalizes) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  Exec(session, "create table J as select * from I "
                "assert not exists(select * from I where C = 'c1');");
  // The three I components correlate under assert: merged into one.
  EXPECT_EQ(Wsd(session).num_components(), 1u);
  EXPECT_EQ(Wsd(session).NumWorlds(), 2u);
}

TEST(DecomposedWorldSetTest, DropRelationRemovesContributions) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A;");
  Exec(session, "drop table I;");
  EXPECT_FALSE(Wsd(session).HasRelation("I"));
  for (const ComponentHandle& c : Wsd(session).components()) {
    EXPECT_FALSE(c->ContributesTo("i"));
  }
}

TEST(DecomposedWorldSetTest, CloneIsIndependent) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table I as select A, B, C from R repair by key A;");
  auto clone = session.world_set().Clone();
  EXPECT_EQ(clone->NumWorlds(), 4u);
  MAYBMS_EXPECT_OK(clone->DropRelation("I"));
  EXPECT_TRUE(session.world_set().HasRelation("I"));
}

/// The relation → component index equals a scan of every component with
/// Component::ContributesTo, for every relation the set or a component
/// names.
void ExpectIndexMatchesScan(const DecomposedWorldSet& wsd,
                            const std::string& context) {
  std::set<std::string> relations;
  for (const std::string& name : wsd.RelationNames()) {
    relations.insert(AsciiToLower(name));
  }
  for (const ComponentHandle& c : wsd.components()) {
    for (const auto& [name, ranges] : c->ranges) relations.insert(name);
  }
  for (const std::string& relation : relations) {
    std::vector<size_t> scan;
    for (size_t i = 0; i < wsd.num_components(); ++i) {
      if (wsd.components()[i]->ContributesTo(relation)) scan.push_back(i);
    }
    EXPECT_EQ(wsd.ComponentsOf(relation), scan) << context << ": " << relation;
  }
}

TEST(DecomposedWorldSetTest, ComponentIndexMatchesAScanAfterEveryMutation) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  const char* kSteps[] = {
      // repair/choice products append components
      "create table I as select A, B, C from R repair by key A weight D;",
      "create table P as select * from S choice of E;",
      // a certain base table and DML on certain relations only
      "create table T (K integer, V integer);",
      "insert into T values (1, 2), (3, 4);",
      // a quantifier-free slice attaches rows to I's components
      "create table Q as select A, B from I where B > 12;",
      // an empty slice attaches empty contributions
      "create table E as select A from I where B > 1000;",
      // the pipeline's materialization replaces I's components
      "create table M as select A, B from I "
      "assert exists (select * from I where B = 15);",
      // DML on an uncertain relation replaces its components
      "update Q set B = B + 1 where A = 'a2';",
      "delete from P where E = 'e1';",
      "drop table Q;",
      "drop table I;",
  };
  ExpectIndexMatchesScan(Wsd(session), "initial");
  for (const char* step : kSteps) {
    Exec(session, step);
    ExpectIndexMatchesScan(Wsd(session), step);
  }
  // Restore and clone keep it too.
  auto snapshot = Wsd(session).ToSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  DecomposedWorldSet restored;
  MAYBMS_ASSERT_OK(restored.FromSnapshot(*snapshot));
  ExpectIndexMatchesScan(restored, "restored");
  EXPECT_EQ(restored.ComponentsOf("m"), Wsd(session).ComponentsOf("m"));
  auto clone = restored.Clone();
  ExpectIndexMatchesScan(static_cast<const DecomposedWorldSet&>(*clone),
                         "clone");
}

}  // namespace
}  // namespace maybms::worlds
