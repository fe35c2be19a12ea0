#ifndef MAYBMS_TESTS_TEST_UTIL_H_
#define MAYBMS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "isql/session.h"
#include "storage/table.h"
#include "types/tuple.h"
#include "types/value.h"

namespace maybms::testing {

#define MAYBMS_ASSERT_OK(expr)                                       \
  do {                                                               \
    const ::maybms::Status _st = (expr);                             \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                         \
  } while (false)

#define MAYBMS_EXPECT_OK(expr)                                       \
  do {                                                               \
    const ::maybms::Status _st = (expr);                             \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                         \
  } while (false)

/// Shorthand literal constructors.
inline Value I(int64_t v) { return Value::Integer(v); }
inline Value D(double v) { return Value::Real(v); }
inline Value T(const char* v) { return Value::Text(v); }
inline Value B(bool v) { return Value::Boolean(v); }
inline Value N() { return Value::Null(); }

inline Tuple Row(std::vector<Value> values) { return Tuple(std::move(values)); }

/// Canonical multiset of rows as strings, for order-independent equality.
inline std::vector<std::string> RowStrings(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (const Tuple& t : table.rows()) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Asserts the table contains exactly `expected` rows (as rendered by
/// Tuple::ToString), regardless of order.
inline void ExpectRows(const Table& table,
                       std::vector<std::string> expected) {
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(RowStrings(table), expected);
}

/// Runs a statement that must succeed; returns its result.
inline isql::QueryResult Exec(isql::Session& session, const std::string& sql) {
  auto result = session.Execute(sql);
  EXPECT_TRUE(result.ok()) << "statement failed: " << sql << "\n  "
                           << result.status().ToString();
  if (!result.ok()) return isql::QueryResult::Message("error");
  return std::move(result).value();
}

/// Runs a script of statements that must all succeed.
inline void ExecScript(isql::Session& session, const std::string& sql) {
  auto result = session.ExecuteScript(sql);
  ASSERT_TRUE(result.ok()) << "script failed: " << result.status().ToString()
                           << "\nscript: " << sql;
}

/// Distribution view of a per-world result: canonical table rendering ->
/// total probability. Collapses duplicate worlds, so it is comparable
/// between the explicit and decomposed engines.
inline std::map<std::string, double> WorldDistribution(
    const std::vector<std::pair<double, Table>>& worlds) {
  std::map<std::string, double> dist;
  for (const auto& [prob, table] : worlds) {
    Table canonical = table.SortedDistinct();
    std::string key;
    for (const Tuple& row : canonical.rows()) key += row.ToString() + ";";
    dist[key] += prob;
  }
  return dist;
}

/// Ordered-sequence view of a per-world result: rows kept in answer
/// order, duplicates kept. Comparable across engines only for queries
/// whose output order is deterministic (ORDER BY with the full-row
/// tie-break of docs/isql.md) — used by the differential harness for
/// ORDER BY / LIMIT probes, where the *prefix*, not just the multiset,
/// must agree.
inline std::map<std::string, double> WorldDistributionOrdered(
    const std::vector<std::pair<double, Table>>& worlds) {
  std::map<std::string, double> dist;
  for (const auto& [prob, table] : worlds) {
    std::string key;
    for (const Tuple& row : table.rows()) key += row.ToString() + ";";
    dist[key] += prob;
  }
  return dist;
}

/// Asserts two world distributions are equal up to probability tolerance.
inline void ExpectSameDistribution(const std::map<std::string, double>& a,
                                   const std::map<std::string, double>& b,
                                   double tolerance = 1e-9) {
  ASSERT_EQ(a.size(), b.size()) << "different world support";
  auto it = a.begin();
  auto jt = b.begin();
  for (; it != a.end(); ++it, ++jt) {
    EXPECT_EQ(it->first, jt->first);
    EXPECT_NEAR(it->second, jt->second, tolerance) << "for world " << it->first;
  }
}

/// Exact value equality; reals must match within `real_tolerance`, which
/// defaults to 0.0 — i.e. bitwise — because "byte-identical at every
/// thread count" is the engine contract. (Callers comparing against a
/// single sequential feed pass a tiny tolerance: merging per-chunk partial
/// sums reassociates floating-point addition. The ENGINE is still exactly
/// deterministic because its chunk geometry is a function of the trip
/// count alone, never of the thread count — see base/thread_pool.h.)
inline void ExpectTablesIdentical(const Table& a, const Table& b,
                                  const std::string& context,
                                  double real_tolerance = 0.0) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns()) << context;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    const Tuple& x = a.row(i);
    const Tuple& y = b.row(i);
    ASSERT_EQ(x.size(), y.size()) << context << " row " << i;
    for (size_t j = 0; j < x.size(); ++j) {
      ASSERT_EQ(x.value(j).type(), y.value(j).type())
          << context << " row " << i << " col " << j;
      if (x.value(j).type() == DataType::kReal) {
        EXPECT_NEAR(x.value(j).AsReal(), y.value(j).AsReal(), real_tolerance)
            << context << " row " << i << " col " << j;
      } else {
        EXPECT_EQ(x.value(j).ToString(), y.value(j).ToString())
            << context << " row " << i << " col " << j;
      }
    }
  }
}

inline void ExpectResultsIdentical(const isql::QueryResult& a,
                                   const isql::QueryResult& b,
                                   const std::string& context) {
  ASSERT_EQ(a.kind(), b.kind()) << context;
  switch (a.kind()) {
    case isql::QueryResult::Kind::kMessage:
      break;
    case isql::QueryResult::Kind::kTable:
      ExpectTablesIdentical(a.table(), b.table(), context);
      break;
    case isql::QueryResult::Kind::kWorlds:
      ExpectSameDistribution(WorldDistribution(a.worlds()),
                             WorldDistribution(b.worlds()), /*tolerance=*/0.0);
      ExpectSameDistribution(WorldDistributionOrdered(a.worlds()),
                             WorldDistributionOrdered(b.worlds()),
                             /*tolerance=*/0.0);
      break;
    case isql::QueryResult::Kind::kGroups: {
      ASSERT_EQ(a.groups().size(), b.groups().size()) << context;
      for (size_t i = 0; i < a.groups().size(); ++i) {
        EXPECT_EQ(a.groups()[i].probability, b.groups()[i].probability)
            << context << " group " << i;
        ExpectTablesIdentical(a.groups()[i].key, b.groups()[i].key,
                              context + " key " + std::to_string(i));
        ExpectTablesIdentical(a.groups()[i].table, b.groups()[i].table,
                              context + " table " + std::to_string(i));
      }
      break;
    }
  }
}

/// Loads the paper's Figure 1 database (relations R and S).
inline void LoadFigure1(isql::Session& session) {
  ExecScript(session, R"sql(
    create table R (A text, B integer, C text, D integer);
    insert into R values
      ('a1', 10, 'c1', 2),
      ('a1', 15, 'c2', 6),
      ('a2', 14, 'c3', 4),
      ('a2', 20, 'c4', 5),
      ('a3', 20, 'c5', 6);
    create table S (C text, E text);
    insert into S values
      ('c2', 'e1'),
      ('c4', 'e1'),
      ('c4', 'e2');
  )sql");
}

/// Loads the whale-tracking observations of Figure 3 as a relation Obs
/// with a world-id column; `choice of WID` turns it into the paper's six
/// worlds.
inline void LoadFigure3(isql::Session& session) {
  ExecScript(session, R"sql(
    create table Obs (WID text, Id integer, Species text, Gender text, Pos text);
    insert into Obs values
      ('A', 1, 'sperm', 'calf', 'b'),
      ('A', 2, 'sperm', 'cow',  'c'),
      ('A', 3, 'orca',  'cow',  'a'),
      ('B', 1, 'sperm', 'calf', 'b'),
      ('B', 2, 'sperm', 'cow',  'c'),
      ('B', 3, 'orca',  'bull', 'a'),
      ('C', 1, 'sperm', 'calf', 'b'),
      ('C', 2, 'sperm', 'bull', 'c'),
      ('C', 3, 'orca',  'cow',  'a'),
      ('D', 1, 'sperm', 'calf', 'b'),
      ('D', 2, 'sperm', 'bull', 'c'),
      ('D', 3, 'orca',  'bull', 'a'),
      ('E', 1, 'sperm', 'calf', 'c'),
      ('E', 2, 'sperm', 'cow',  'b'),
      ('E', 3, 'orca',  'cow',  'a'),
      ('F', 1, 'sperm', 'calf', 'c'),
      ('F', 2, 'sperm', 'bull', 'b'),
      ('F', 3, 'orca',  'cow',  'a');
    create table I as
      select Id, Species, Gender, Pos from Obs choice of WID;
  )sql");
}

/// Test fixture parameterized over the two world-set engines; every
/// semantic test runs against both.
class EngineTest : public ::testing::TestWithParam<isql::EngineMode> {
 protected:
  isql::SessionOptions Options() const {
    isql::SessionOptions options;
    options.engine = GetParam();
    options.max_display_worlds = 4096;
    return options;
  }
};

#define MAYBMS_INSTANTIATE_ENGINES(suite)                               \
  INSTANTIATE_TEST_SUITE_P(                                             \
      Engines, suite,                                                   \
      ::testing::Values(::maybms::isql::EngineMode::kExplicit,          \
                        ::maybms::isql::EngineMode::kDecomposed),       \
      [](const ::testing::TestParamInfo<::maybms::isql::EngineMode>&    \
             param_info) {                                              \
        return param_info.param == ::maybms::isql::EngineMode::kExplicit \
                   ? "Explicit"                                         \
                   : "Decomposed";                                      \
      })

}  // namespace maybms::testing

#endif  // MAYBMS_TESTS_TEST_UTIL_H_
