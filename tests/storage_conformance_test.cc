// Storage differential conformance (ISSUE 8): every generated I-SQL
// pipeline runs against TWO sessions of the SAME engine — one on
// in-memory tables, one on durable paged storage with a deliberately tiny
// buffer pool (so commits and reads continuously evict and re-fetch pages
// through checksum verification) — and demands byte-identical
// observables: the same status (same error string, not merely
// both-failed), the same result kind, world distributions equal with ZERO
// tolerance (plus the ordered view covering row order and LIMIT
// prefixes), and bitwise-equal confidences. Storage must be unobservable.
//
// A second battery proves restart equivalence: a session committing to an
// explicit directory is destroyed mid-script, reopened from disk, and
// must answer every probe exactly like a memory session that never
// restarted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "base/rng.h"
#include "base/string_util.h"
#include "isql/formatter.h"
#include "isql/session.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/store.h"
#include "tests/pipeline_gen.h"
#include "worlds/world_set.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using isql::StorageMode;
using maybms::testing::ExpectSameDistribution;
using maybms::testing::GeneratedPipeline;
using maybms::testing::PipelineGenerator;
using maybms::testing::WorldDistribution;
using maybms::testing::WorldDistributionOrdered;

// Small enough that every pipeline's working set (tables + manifest +
// component contributions) overflows the pool and forces eviction.
constexpr size_t kTinyPool = 4;

SessionOptions MemoryOptions(EngineMode mode) {
  SessionOptions options;
  options.engine = mode;
  options.storage = StorageMode::kMemory;
  options.max_display_worlds = 1 << 20;
  return options;
}

SessionOptions PagedOptions(EngineMode mode, size_t pool_pages = kTinyPool,
                            const std::string& dir = "") {
  SessionOptions options;
  options.engine = mode;
  options.storage = StorageMode::kPaged;
  options.pool_pages = pool_pages;
  options.storage_dir = dir;
  options.max_display_worlds = 1 << 20;
  return options;
}

/// Canonical form of one row: non-real values verbatim plus the real
/// values collected in column order. Unlike the cross-engine harness
/// (differential_conformance_test.cc) the reals are compared with
/// EXPECT_EQ — a table that round-tripped pages must reproduce every
/// double bit-for-bit.
struct CanonicalRow {
  std::string discrete;
  std::vector<double> reals;
};

std::vector<CanonicalRow> Canonicalize(const Table& table) {
  std::vector<CanonicalRow> rows;
  rows.reserve(table.num_rows());
  for (const Tuple& t : table.rows()) {
    CanonicalRow row;
    for (size_t i = 0; i < t.size(); ++i) {
      const Value& v = t.value(i);
      if (v.type() == DataType::kReal) {
        row.discrete += "<real>,";
        row.reals.push_back(v.AsReal());
      } else {
        row.discrete += v.ToString() + ",";
      }
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const CanonicalRow& a, const CanonicalRow& b) {
              if (a.discrete != b.discrete) return a.discrete < b.discrete;
              return a.reals < b.reals;
            });
  return rows;
}

void ExpectTablesIdentical(const Table& expected, const Table& actual,
                           const std::string& context) {
  std::vector<CanonicalRow> e = Canonicalize(expected);
  std::vector<CanonicalRow> a = Canonicalize(actual);
  ASSERT_EQ(e.size(), a.size()) << context;
  for (size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(e[i].discrete, a[i].discrete) << context << " (row " << i << ")";
    ASSERT_EQ(e[i].reals.size(), a[i].reals.size()) << context;
    for (size_t j = 0; j < e[i].reals.size(); ++j) {
      EXPECT_EQ(e[i].reals[j], a[i].reals[j])
          << context << " (row " << i << ", real " << j << ")";
    }
  }
}

/// Runs one statement on both sessions; asserts bit-exact agreement on
/// every observable, including the exact error string on failure.
void CheckStatement(Session& memory, Session& paged, const std::string& sql,
                    const std::string& context) {
  auto m = memory.Execute(sql);
  auto p = paged.Execute(sql);
  const std::string ctx = context + "\nstatement: " + sql;
  ASSERT_EQ(m.ok(), p.ok())
      << ctx << "\n memory: " << m.status().ToString()
      << "\n paged:  " << p.status().ToString();
  if (!m.ok()) {
    EXPECT_EQ(m.status().ToString(), p.status().ToString()) << ctx;
    return;
  }
  ASSERT_EQ(m->kind(), p->kind()) << ctx;
  switch (m->kind()) {
    case QueryResult::Kind::kMessage:
      break;
    case QueryResult::Kind::kWorlds:
      ExpectSameDistribution(WorldDistribution(m->worlds()),
                             WorldDistribution(p->worlds()),
                             /*tolerance=*/0.0);
      ExpectSameDistribution(WorldDistributionOrdered(m->worlds()),
                             WorldDistributionOrdered(p->worlds()),
                             /*tolerance=*/0.0);
      break;
    case QueryResult::Kind::kTable:
      ExpectTablesIdentical(m->table(), p->table(), ctx);
      break;
    case QueryResult::Kind::kGroups: {
      ASSERT_EQ(m->groups().size(), p->groups().size()) << ctx;
      for (size_t i = 0; i < m->groups().size(); ++i) {
        EXPECT_EQ(m->groups()[i].probability, p->groups()[i].probability)
            << ctx << " (group " << i << ")";
        ExpectTablesIdentical(m->groups()[i].key, p->groups()[i].key,
                              ctx + " (group key " + std::to_string(i) + ")");
        ExpectTablesIdentical(m->groups()[i].table, p->groups()[i].table,
                              ctx + " (group " + std::to_string(i) + ")");
      }
      break;
    }
  }
}

class StorageConformanceTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, uint32_t>> {
 protected:
  void SetUp() override {
    const EngineMode mode = std::get<0>(GetParam());
    memory_ = std::make_unique<Session>(MemoryOptions(mode));
    paged_ = std::make_unique<Session>(PagedOptions(mode));
    ASSERT_TRUE(paged_->is_paged());
    ASSERT_NE(paged_->paged_store(), nullptr);
    ASSERT_EQ(paged_->paged_store()->pool()->pool_pages(), kTinyPool);
  }

  std::unique_ptr<Session> memory_;
  std::unique_ptr<Session> paged_;
};

TEST_P(StorageConformanceTest, GeneratedPipelineIsStorageInvariant) {
  const uint32_t seed = std::get<1>(GetParam());
  GeneratedPipeline pipeline = PipelineGenerator(seed).Generate();
  const std::string ctx = "seed " + std::to_string(seed) + "\npipeline:\n" +
                          pipeline.DebugString();
  for (const std::string& sql : pipeline.setup) {
    CheckStatement(*memory_, *paged_, sql, ctx);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(memory_->world_set().NumWorlds(), paged_->world_set().NumWorlds())
      << ctx;
  // The setup really went through the store: at least one commit landed.
  EXPECT_GE(paged_->paged_store()->generation(), 1u) << ctx;
  for (const std::string& sql : pipeline.probes) {
    CheckStatement(*memory_, *paged_, sql, ctx);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, StorageConformanceTest,
    ::testing::Combine(::testing::Values(EngineMode::kExplicit,
                                         EngineMode::kDecomposed),
                       ::testing::Range(uint32_t{0}, uint32_t{60})),
    [](const ::testing::TestParamInfo<std::tuple<EngineMode, uint32_t>>&
           param_info) {
      return std::string(std::get<0>(param_info.param) == EngineMode::kExplicit
                             ? "Explicit"
                             : "Decomposed") +
             "_" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Per-statement durable equivalence. A paged session never reads its own
// commits back, so on a fixed subset of the corpus every mutating
// statement is followed by a reopen of the directory in a fresh session,
// whose answers — exact error strings included — must equal the live
// paged session's and the memory twin's. Views are not durable (see
// isql/session.h), so probes that reference one are compared only
// between the live sessions. The reopened session only reads, so it never
// writes the file the live session commits to.
// ---------------------------------------------------------------------------

/// Lower-cased names of the views `sql` defines, if it is a CREATE VIEW.
void CollectViewName(const std::string& sql, std::set<std::string>* views) {
  auto stmt = sql::Parser::ParseStatement(sql);
  if (!stmt.ok() || (*stmt)->kind != sql::StatementKind::kCreateTableAs) {
    return;
  }
  const auto& create =
      static_cast<const sql::CreateTableAsStatement&>(**stmt);
  if (create.is_view) views->insert(AsciiToLower(create.table_name));
}

bool ReferencesAny(const std::string& sql,
                   const std::set<std::string>& names) {
  auto stmt = sql::Parser::ParseStatement(sql);
  if (!stmt.ok() || (*stmt)->kind != sql::StatementKind::kSelect) {
    return false;
  }
  std::set<std::string> referenced;
  worlds::CollectReferencedRelations(
      static_cast<const sql::SelectStatement&>(**stmt), &referenced);
  for (const std::string& name : referenced) {
    if (names.count(name) > 0) return true;
  }
  return false;
}

class DurableEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, uint32_t>> {};

TEST_P(DurableEquivalenceTest, EveryCommitReopensToTheLiveState) {
  const EngineMode mode = std::get<0>(GetParam());
  const uint32_t seed = std::get<1>(GetParam());
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("maybms-durable-eq-" + std::to_string(::getpid()) + "-" +
        std::to_string(seed) + (mode == EngineMode::kExplicit ? "e" : "d")))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  GeneratedPipeline pipeline = PipelineGenerator(seed).Generate();
  const std::string ctx = "seed " + std::to_string(seed) + "\npipeline:\n" +
                          pipeline.DebugString();
  Session memory(MemoryOptions(mode));
  Session paged(PagedOptions(mode, kTinyPool, dir));
  std::set<std::string> views;
  size_t compared = 0;
  for (size_t i = 0; i < pipeline.setup.size(); ++i) {
    const std::string& statement = pipeline.setup[i];
    CheckStatement(memory, paged, statement, ctx);
    if (::testing::Test::HasFatalFailure()) break;
    CollectViewName(statement, &views);

    Session reopened(PagedOptions(mode, kTinyPool, dir));
    const std::string step =
        ctx + "\nreopened after setup statement " + std::to_string(i);
    EXPECT_EQ(reopened.paged_store()->generation(),
              paged.paged_store()->generation())
        << step;
    for (const std::string& probe : pipeline.probes) {
      if (ReferencesAny(probe, views)) continue;
      ++compared;
      CheckStatement(paged, reopened, probe, step + " (vs live paged)");
      CheckStatement(memory, reopened, probe, step + " (vs memory)");
      if (::testing::Test::HasFatalFailure()) break;
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_GT(compared, 0u) << ctx;
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    CorpusSubset, DurableEquivalenceTest,
    ::testing::Combine(::testing::Values(EngineMode::kExplicit,
                                         EngineMode::kDecomposed),
                       ::testing::Values(uint32_t{0}, uint32_t{3},
                                         uint32_t{7}, uint32_t{12},
                                         uint32_t{19}, uint32_t{26},
                                         uint32_t{33}, uint32_t{41},
                                         uint32_t{48}, uint32_t{55})),
    [](const ::testing::TestParamInfo<std::tuple<EngineMode, uint32_t>>&
           param_info) {
      return std::string(std::get<0>(param_info.param) == EngineMode::kExplicit
                             ? "Explicit"
                             : "Decomposed") +
             "_" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// The tiny pool really is tiny: paged pipelines must evict, not secretly
// cache everything (which would make the corpus above vacuous).
// ---------------------------------------------------------------------------

TEST(StoragePressureTest, TinyPoolEvictsUnderPipelineLoad) {
  Session paged(PagedOptions(EngineMode::kDecomposed));
  std::string values;
  for (int i = 0; i < 2000; ++i) {
    values += (i ? ", (" : "(") + std::to_string(i % 7) + ", " +
              std::to_string(i) + ", 'row_" + std::to_string(i) + "')";
  }
  MAYBMS_ASSERT_OK(
      paged.Execute("create table Big (K integer, V integer, T text);")
          .status());
  MAYBMS_ASSERT_OK(
      paged.Execute("insert into Big values " + values + ";").status());
  auto count = paged.Execute("select certain count(*) from Big;");
  ASSERT_TRUE(count.ok()) << count.status().ToString();

  const storage::BufferPool::Stats stats =
      paged.paged_store()->pool()->stats();
  EXPECT_GE(stats.evictions, 1u)
      << "2000 rows in a " << kTinyPool << "-page pool never evicted";
  EXPECT_EQ(paged.paged_store()->pool()->PinnedFrames(), 0u);
}

// ---------------------------------------------------------------------------
// Restart equivalence: kill the session, reopen the directory, and the
// recovered world-set must answer exactly like a memory session that
// lived through the whole script. (Views are excluded: view definitions
// are not durable, by design — see isql/session.h.)
// ---------------------------------------------------------------------------

class StorageRestartTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(StorageRestartTest, ReopenedStoreAnswersIdentically) {
  const EngineMode mode = GetParam();
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("maybms-restart-" +
        std::string(mode == EngineMode::kExplicit ? "e" : "d") + "-" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const std::vector<std::string> script = {
      "create table B (K integer, V integer, W integer);",
      "insert into B values (1, 10, 1), (1, 20, 3), (2, 30, 2), "
      "(2, 40, 1), (3, 50, 5), (3, 60, 1);",
      "create table R as select K, V from B repair by key K weight W;",
      "update B set V = V + 1 where K = 2;",
      "delete from B where K = 3;",
      "insert into B values (4, 70, 2);",
  };
  const std::vector<std::string> probes = {
      "select * from B;",
      "select possible V from R;",
      "select certain V from R;",
      "select conf(V) from R group by V;",
      "select K, V from R where V > 15;",
      "select count(*) from B;",
  };

  Session memory(MemoryOptions(mode));
  for (const std::string& sql : script) {
    auto r = memory.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  }

  {
    Session first(PagedOptions(mode, /*pool_pages=*/kTinyPool, dir));
    for (const std::string& sql : script) {
      auto r = first.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    }
    // Destroyed here WITHOUT any explicit flush call: durability must come
    // from the per-statement commit protocol alone.
  }

  Session reopened(PagedOptions(mode, /*pool_pages=*/kTinyPool, dir));
  ASSERT_EQ(memory.world_set().NumWorlds(), reopened.world_set().NumWorlds());
  const std::string ctx = "restart equivalence, dir " + dir;
  for (const std::string& sql : probes) {
    CheckStatement(memory, reopened, sql, ctx);
    if (::testing::Test::HasFatalFailure()) break;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, StorageRestartTest,
    ::testing::Values(EngineMode::kExplicit, EngineMode::kDecomposed),
    [](const ::testing::TestParamInfo<EngineMode>& param_info) {
      return param_info.param == EngineMode::kExplicit ? "Explicit"
                                                       : "Decomposed";
    });

// ---------------------------------------------------------------------------
// Page-granular commits at the session level: a write re-encodes only the
// pages of the rows it changed, yet a reopen must answer exactly like a
// memory twin, and the rewritten runs must stay about as packed as a
// fresh write of the same rows.
// ---------------------------------------------------------------------------

class PageReuseTest : public ::testing::TestWithParam<EngineMode> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("maybms-page-reuse-" + std::to_string(::getpid()) + "-" +
             (GetParam() == EngineMode::kExplicit ? "e" : "d")))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ + "/live");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Session> OpenPaged() {
    return std::make_unique<Session>(
        PagedOptions(GetParam(), /*pool_pages=*/64, dir_ + "/live"));
  }

  /// The formatted answer (or error) of every probe.
  static std::string Probe(Session& session,
                           const std::vector<std::string>& probes) {
    std::string out;
    for (const std::string& probe : probes) {
      auto r = session.Execute(probe);
      out += probe + "\n" +
             (r.ok() ? isql::FormatQueryResult(*r) : r.status().ToString()) +
             "\n";
    }
    return out;
  }

  /// Page count of the run holding relation `name`, and of the same rows
  /// written afresh into a new store.
  std::pair<uint64_t, uint64_t> RunPages(Session& session,
                                         const std::string& name) {
    auto snapshot = session.world_set().ToSnapshot();
    EXPECT_TRUE(snapshot.ok());
    const std::vector<storage::DurableSnapshot::RelationRef>& refs =
        snapshot->certain.empty() ? snapshot->worlds.at(0).relations
                                  : snapshot->certain;
    Database::TableHandle table;
    for (const auto& ref : refs) {
      if (ref.name == name) table = snapshot->tables.at(ref.table_index);
    }
    EXPECT_NE(table, nullptr);
    uint64_t live = 0;
    for (const auto& [instance, run] :
         session.paged_store()->PersistedRuns()) {
      if (instance == table.get()) live = run.page_count();
    }
    const std::string fresh_path = dir_ + "/fresh.db";
    std::filesystem::remove(fresh_path);
    auto fresh = storage::PagedStore::Open(fresh_path, 16);
    EXPECT_TRUE(fresh.ok());
    storage::DurableSnapshot alone;
    alone.engine = "decomposed";
    alone.tables.push_back(table);
    alone.certain.push_back({name, 0});
    EXPECT_TRUE(fresh.value()->Commit(alone).ok());
    uint64_t written = 0;
    for (const auto& [instance, run] : fresh.value()->PersistedRuns()) {
      written += run.page_count();
    }
    return {live, written};
  }

  std::string dir_;
};

TEST_P(PageReuseTest, OneRowWritesOnALargeTableFlushAFewPages) {
  constexpr int kRows = 20000;
  std::string values;
  for (int k = 0; k < kRows; ++k) {
    values += (k > 0 ? ", (" : "(") + std::to_string(k) + ", " +
              std::to_string(k % 1000) + ", " + std::to_string(k % 50) + ")";
  }
  const std::vector<std::string> setup = {
      "create table C (K integer primary key, V integer, G integer);",
      "insert into C values " + values + ";",
  };
  // A one-row insert (appended after the last row), and an update and a
  // delete of the first, a middle and the last row.
  const std::vector<std::string> writes = {
      "insert into C values (-1, 7, 7);",
      "update C set V = V + 1 where K = 0;",
      "update C set V = V + 1 where K = 10000;",
      "update C set V = V + 1 where K = 19999;",
      "delete from C where K = 0;",
      "delete from C where K = 10000;",
      "delete from C where K = 19999;",
      "insert into C values (20000, 8, 8);",
  };
  const std::vector<std::string> probes = {
      "select count(*), sum(V), sum(G) from C;",
      "select * from C where K < 3 or K > 19997 or (K > 9998 and K < 10002);",
      "select certain count(*) from C where V > 500;",
  };

  Session memory(MemoryOptions(GetParam()));
  std::unique_ptr<Session> paged = OpenPaged();
  for (const std::string& sql : setup) {
    MAYBMS_ASSERT_OK(memory.Execute(sql).status());
    MAYBMS_ASSERT_OK(paged->Execute(sql).status());
  }
  for (const std::string& sql : writes) {
    SCOPED_TRACE(sql);
    MAYBMS_ASSERT_OK(memory.Execute(sql).status());
    const uint64_t flushes = paged->paged_store()->pool()->stats().flushes;
    MAYBMS_ASSERT_OK(paged->Execute(sql).status());
    // At most 4 data pages, plus the one-page manifest.
    EXPECT_LE(paged->paged_store()->pool()->stats().flushes - flushes, 5u);
    paged.reset();
    paged = OpenPaged();
    EXPECT_EQ(Probe(*paged, probes), Probe(memory, probes));
  }
}

TEST_P(PageReuseTest, SeededMixedDmlMatchesMemoryTwinAndStaysPacked) {
  constexpr int kRows = 3000;
  constexpr int kStatements = 1000;
  constexpr int kReopenEvery = 50;
  base::SplitMix64 rng(20260917);
  auto uniform = [&rng](int64_t lo, int64_t hi) {
    return lo +
           static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  auto row = [&](int64_t key) {
    return "(" + std::to_string(key) + ", " + std::to_string(uniform(0, 999)) +
           ", '" + std::string(static_cast<size_t>(uniform(1, 24)), 's') +
           std::to_string(key) + "')";
  };
  int64_t next_key = 0;
  auto rows = [&](int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += (i > 0 ? ", " : "") + row(next_key++);
    return out;
  };

  Session memory(MemoryOptions(GetParam()));
  std::unique_ptr<Session> paged = OpenPaged();
  auto both = [&](const std::string& sql) {
    auto m = memory.Execute(sql);
    auto p = paged->Execute(sql);
    ASSERT_EQ(m.ok(), p.ok()) << sql << "\n" << p.status().ToString();
  };
  both("create table T (K integer primary key, V integer, S text);");
  both("insert into T values " + rows(kRows) + ";");
  const std::vector<std::string> probes = {
      "select * from T;",
      "select count(*), sum(V) from T;",
      "select certain count(*) from T where V > 500;",
  };

  for (int i = 1; i <= kStatements; ++i) {
    const std::string key = std::to_string(uniform(0, next_key - 1));
    const std::string from = std::to_string(uniform(0, next_key - 1));
    std::string sql;
    switch (uniform(0, 6)) {
      case 0:
        sql = "insert into T values " + rows(1) + ";";
        break;
      case 1:
        sql = "update T set V = V + 1 where K = " + key + ";";
        break;
      case 2:
        sql = "delete from T where K = " + key + ";";
        break;
      case 3:
        sql = "update T set V = V + 3 where K >= " + from + " and K < " +
              from + " + 40;";
        break;
      case 4:
        sql = "delete from T where K >= " + from + " and K < " + from +
              " + 25;";
        break;
      case 5:
        sql = "insert into T values " + rows(20) + ";";
        break;
      default:
        // Rows change size, so they move between pages.
        sql = "update T set S = '" +
              std::string(static_cast<size_t>(uniform(0, 60)), 'x') +
              "' where K = " + key + ";";
        break;
    }
    both(sql);
    if (::testing::Test::HasFatalFailure()) return;
    if (i % kReopenEvery != 0) continue;

    SCOPED_TRACE("after statement " + std::to_string(i) + ": " + sql);
    paged.reset();
    paged = OpenPaged();
    EXPECT_EQ(Probe(*paged, probes), Probe(memory, probes));
    const auto [live, fresh] = RunPages(*paged, "T");
    EXPECT_LE(live * 2, fresh * 3)
        << live << " pages where a fresh write takes " << fresh;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PageReuseTest,
    ::testing::Values(EngineMode::kExplicit, EngineMode::kDecomposed),
    [](const ::testing::TestParamInfo<EngineMode>& param_info) {
      return param_info.param == EngineMode::kExplicit ? "Explicit"
                                                       : "Decomposed";
    });

// MAYBMS_STORAGE=paged (the env hook CI uses) must resolve exactly like
// SessionOptions::storage = kPaged; otherwise the storage-paged CI job
// exercises a different code path than this suite.
TEST(StorageModeResolutionTest, EnvironmentVariableSelectsPagedStorage) {
  ::setenv("MAYBMS_STORAGE", "paged", 1);
  ::setenv("MAYBMS_POOL_PAGES", "8", 1);
  {
    Session session((SessionOptions()));
    EXPECT_TRUE(session.is_paged());
    ASSERT_NE(session.paged_store(), nullptr);
    EXPECT_EQ(session.paged_store()->pool()->pool_pages(), 8u);
  }
  ::unsetenv("MAYBMS_STORAGE");
  ::unsetenv("MAYBMS_POOL_PAGES");
  Session session((SessionOptions()));
  EXPECT_FALSE(session.is_paged());
}

// Unknown MAYBMS_STORAGE values must be a configuration error, not a
// silent fall-back to memory: a CI job exporting MAYBMS_STORAGE=Paged
// would otherwise "pass" without touching the paged path at all.
TEST(StorageModeResolutionTest, UnknownEnvironmentValuesAreRejected) {
  for (const char* bad : {"Paged", "disk", "PAGED", "Memory", "mem", " "}) {
    ASSERT_EQ(::setenv("MAYBMS_STORAGE", bad, 1), 0);
    Session session((SessionOptions()));
    EXPECT_FALSE(session.is_paged()) << bad;
    auto r = session.Execute("create table T (A integer);");
    ASSERT_FALSE(r.ok()) << "MAYBMS_STORAGE=\"" << bad
                         << "\" was silently accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("MAYBMS_STORAGE"), std::string::npos)
        << r.status().ToString();
  }
  ::unsetenv("MAYBMS_STORAGE");
}

// The two documented values keep working, case-sensitively.
TEST(StorageModeResolutionTest, MemoryIsAcceptedExplicitly) {
  ::setenv("MAYBMS_STORAGE", "memory", 1);
  Session session((SessionOptions()));
  EXPECT_FALSE(session.is_paged());
  auto r = session.Execute("create table T (A integer);");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  ::unsetenv("MAYBMS_STORAGE");
}

}  // namespace
}  // namespace maybms
