// Differential conformance harness: executes randomly generated I-SQL
// pipelines (tests/pipeline_gen.h) against BOTH world-set engines and
// asserts that every observable — statement success/failure, world count,
// per-world answer distributions, possible/certain answer sets, per-tuple
// confidences — agrees. This turns the paper's central equivalence claim
// (decomposed world-set representation answers queries identically to
// naive world enumeration) into an executable oracle: any future engine
// refactor that breaks the equivalence fails this suite with a
// reproducible seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "engine/executor.h"
#include "engine/prepared.h"
#include "isql/session.h"
#include "sql/parser.h"
#include "tests/pipeline_gen.h"
#include "tests/test_util.h"
#include "worlds/explicit_world_set.h"

namespace maybms {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using maybms::testing::ExpectSameDistribution;
using maybms::testing::GeneratedPipeline;
using maybms::testing::PipelineGenerator;
using maybms::testing::WorldDistribution;

constexpr double kConfTolerance = 1e-9;

SessionOptions OptionsFor(EngineMode mode) {
  SessionOptions options;
  options.engine = mode;
  options.max_display_worlds = 1 << 20;
  return options;
}

/// Canonical form of one row: the non-real values verbatim (they must
/// match exactly) plus the real values collected separately (they are
/// compared with a numeric tolerance — confidences may differ in the last
/// ulps between the decomposed closed form and explicit enumeration).
struct CanonicalRow {
  std::string discrete;       // non-real values, comma-separated
  std::vector<double> reals;  // real values, in column order
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
  std::sort(rows.begin(), rows.end(), [](const CanonicalRow& a,
                                         const CanonicalRow& b) {
    if (a.discrete != b.discrete) return a.discrete < b.discrete;
    return a.reals < b.reals;
  });
  return rows;
}

/// Asserts two answer relations are equal as multisets, with per-tuple
/// real values (confidences) within kConfTolerance.
void ExpectTablesAgree(const Table& expected, const Table& actual,
                       const std::string& context) {
  std::vector<CanonicalRow> e = Canonicalize(expected);
  std::vector<CanonicalRow> a = Canonicalize(actual);
  ASSERT_EQ(e.size(), a.size()) << context;
  for (size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(e[i].discrete, a[i].discrete) << context << " (row " << i << ")";
    ASSERT_EQ(e[i].reals.size(), a[i].reals.size()) << context;
    for (size_t j = 0; j < e[i].reals.size(); ++j) {
      EXPECT_NEAR(e[i].reals[j], a[i].reals[j], kConfTolerance)
          << context << " (row " << i << ", real " << j << ")";
    }
  }
}

class DifferentialConformanceTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    explicit_ = std::make_unique<Session>(OptionsFor(EngineMode::kExplicit));
    decomposed_ =
        std::make_unique<Session>(OptionsFor(EngineMode::kDecomposed));
  }

  /// Runs one statement on both engines; asserts status agreement and —
  /// when both succeed — full result agreement.
  void CheckStatement(const std::string& sql, const std::string& context) {
    auto e = explicit_->Execute(sql);
    auto d = decomposed_->Execute(sql);
    ASSERT_EQ(e.ok(), d.ok())
        << context << "\nstatement: " << sql
        << "\n explicit:   " << e.status().ToString()
        << "\n decomposed: " << d.status().ToString();
    if (!e.ok()) return;
    ASSERT_EQ(e->kind(), d->kind()) << context << "\nstatement: " << sql;
    const std::string ctx = context + "\nstatement: " + sql;
    switch (e->kind()) {
      case QueryResult::Kind::kMessage:
        break;
      case QueryResult::Kind::kWorlds:
        ExpectSameDistribution(WorldDistribution(e->worlds()),
                               WorldDistribution(d->worlds()),
                               kConfTolerance);
        // ORDER BY probes additionally agree on the *sequence* of every
        // world's answer (and hence on any LIMIT prefix): deterministic
        // tie-breaking makes row order a function of the answer bag.
        if (sql.find(" order by ") != std::string::npos) {
          ExpectSameDistribution(
              maybms::testing::WorldDistributionOrdered(e->worlds()),
              maybms::testing::WorldDistributionOrdered(d->worlds()),
              kConfTolerance);
        }
        break;
      case QueryResult::Kind::kTable:
        ExpectTablesAgree(e->table(), d->table(), ctx);
        break;
      case QueryResult::Kind::kGroups: {
        ASSERT_EQ(e->groups().size(), d->groups().size()) << ctx;
        auto group_key = [](const worlds::SelectEvaluation::GroupResult& g) {
          std::string key;
          Table canonical = g.key.SortedDistinct();
          for (const Tuple& row : canonical.rows()) {
            key += row.ToString() + ";";
          }
          return key;
        };
        std::map<std::string, const worlds::SelectEvaluation::GroupResult*>
            by_key;
        for (const auto& g : d->groups()) by_key[group_key(g)] = &g;
        for (const auto& g : e->groups()) {
          auto it = by_key.find(group_key(g));
          ASSERT_NE(it, by_key.end())
              << ctx << "\ngroup missing in decomposed: " << group_key(g);
          EXPECT_NEAR(g.probability, it->second->probability, kConfTolerance)
              << ctx;
          ExpectTablesAgree(g.table, it->second->table, ctx);
        }
        break;
      }
    }
  }

  /// Asserts the two sessions agree on the shape of the world-set itself:
  /// relation catalog, world count, and log-world-count.
  void CheckWorldSetShape(const GeneratedPipeline& pipeline) {
    const std::string ctx = "pipeline:\n" + pipeline.DebugString();
    std::vector<std::string> e_names = explicit_->world_set().RelationNames();
    std::vector<std::string> d_names =
        decomposed_->world_set().RelationNames();
    std::sort(e_names.begin(), e_names.end());
    std::sort(d_names.begin(), d_names.end());
    EXPECT_EQ(e_names, d_names) << ctx;

    uint64_t e_worlds = explicit_->world_set().NumWorlds();
    uint64_t d_worlds = decomposed_->world_set().NumWorlds();
    EXPECT_EQ(e_worlds, d_worlds) << ctx;
    EXPECT_LE(d_worlds, pipeline.world_bound) << ctx;
    EXPECT_NEAR(explicit_->world_set().Log10NumWorlds(),
                decomposed_->world_set().Log10NumWorlds(), 1e-6)
        << ctx;
  }

  void RunPipeline(uint32_t seed) {
    PipelineGenerator generator(seed);
    GeneratedPipeline pipeline = generator.Generate();
    const std::string ctx =
        "seed " + std::to_string(seed) + "\npipeline:\n" +
        pipeline.DebugString();
    for (const std::string& sql : pipeline.setup) {
      CheckStatement(sql, ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
    CheckWorldSetShape(pipeline);
    for (const std::string& sql : pipeline.probes) {
      CheckStatement(sql, ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const std::string& sql : pipeline.writes) {
      CheckStatement(sql, ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
    CheckWorldSetShape(pipeline);
  }

  std::unique_ptr<Session> explicit_;
  std::unique_ptr<Session> decomposed_;
};

TEST_P(DifferentialConformanceTest, GeneratedPipelineAgrees) {
  RunPipeline(GetParam());
}

// ≥300 random pipelines, each with its own world-set construction and
// probe workload. A failure message embeds the seed and the full script.
// MAYBMS_DIFF_SEEDS raises the count for deeper (e.g. nightly) sweeps.
uint32_t SeedCount() {
  if (const char* env = std::getenv("MAYBMS_DIFF_SEEDS")) {
    long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<uint32_t>(parsed);
  }
  return 300;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialConformanceTest,
                         ::testing::Range(uint32_t{0}, SeedCount()));

// ---------------------------------------------------------------------------
// Thread-count invariance over the same corpus
// ---------------------------------------------------------------------------

/// Exact table equality — including bitwise-equal reals. Used by the
/// thread-invariance harness below: within ONE engine, the thread count
/// may not perturb even the last ulp of a confidence (the per-chunk
/// combiners merge in chunk-index order regardless of scheduling, see
/// base/thread_pool.h), so no tolerance is granted.
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

/// Runs every generated pipeline on one engine twice — sequential
/// (threads=1) and parallel (threads=4) — and demands byte-identical
/// observables per statement: the SAME status (same error string, not
/// merely both-failed), same result kind, world distributions equal with
/// ZERO tolerance (plus the ordered view, which captures row order and
/// LIMIT prefixes), identical tables and groups. Stricter than the
/// cross-engine check above by design: parallelism must be unobservable.
class ThreadInvarianceTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, uint32_t>> {
 protected:
  void SetUp() override {
    const EngineMode mode = std::get<0>(GetParam());
    SessionOptions sequential = OptionsFor(mode);
    sequential.threads = 1;
    SessionOptions parallel = OptionsFor(mode);
    parallel.threads = 4;
    sequential_ = std::make_unique<Session>(sequential);
    parallel_ = std::make_unique<Session>(parallel);
  }

  void CheckStatement(const std::string& sql, const std::string& context) {
    auto s = sequential_->Execute(sql);
    auto p = parallel_->Execute(sql);
    const std::string ctx = context + "\nstatement: " + sql;
    ASSERT_EQ(s.ok(), p.ok())
        << ctx << "\n threads=1: " << s.status().ToString()
        << "\n threads=4: " << p.status().ToString();
    if (!s.ok()) {
      // Deterministic first-error selection: the parallel run must
      // surface the exact error the sequential walk hits first.
      EXPECT_EQ(s.status().ToString(), p.status().ToString()) << ctx;
      return;
    }
    ASSERT_EQ(s->kind(), p->kind()) << ctx;
    switch (s->kind()) {
      case QueryResult::Kind::kMessage:
        break;
      case QueryResult::Kind::kWorlds:
        ExpectSameDistribution(WorldDistribution(s->worlds()),
                               WorldDistribution(p->worlds()),
                               /*tolerance=*/0.0);
        ExpectSameDistribution(
            maybms::testing::WorldDistributionOrdered(s->worlds()),
            maybms::testing::WorldDistributionOrdered(p->worlds()),
            /*tolerance=*/0.0);
        break;
      case QueryResult::Kind::kTable:
        ExpectTablesIdentical(s->table(), p->table(), ctx);
        break;
      case QueryResult::Kind::kGroups: {
        ASSERT_EQ(s->groups().size(), p->groups().size()) << ctx;
        for (size_t i = 0; i < s->groups().size(); ++i) {
          EXPECT_EQ(s->groups()[i].probability, p->groups()[i].probability)
              << ctx << " (group " << i << ")";
          ExpectTablesIdentical(s->groups()[i].key, p->groups()[i].key,
                                ctx + " (group key " + std::to_string(i) + ")");
          ExpectTablesIdentical(s->groups()[i].table, p->groups()[i].table,
                                ctx + " (group " + std::to_string(i) + ")");
        }
        break;
      }
    }
  }

  std::unique_ptr<Session> sequential_;
  std::unique_ptr<Session> parallel_;
};

TEST_P(ThreadInvarianceTest, GeneratedPipelineIsThreadCountInvariant) {
  const uint32_t seed = std::get<1>(GetParam());
  GeneratedPipeline pipeline = PipelineGenerator(seed).Generate();
  const std::string ctx = "seed " + std::to_string(seed) + "\npipeline:\n" +
                          pipeline.DebugString();
  for (const std::string& sql : pipeline.setup) {
    CheckStatement(sql, ctx);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(sequential_->world_set().NumWorlds(),
            parallel_->world_set().NumWorlds())
      << ctx;
  for (const std::string& sql : pipeline.probes) {
    CheckStatement(sql, ctx);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const std::string& sql : pipeline.writes) {
    CheckStatement(sql, ctx);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ThreadInvarianceTest,
    ::testing::Combine(::testing::Values(EngineMode::kExplicit,
                                         EngineMode::kDecomposed),
                       ::testing::Range(uint32_t{0}, SeedCount())),
    [](const ::testing::TestParamInfo<std::tuple<EngineMode, uint32_t>>&
           param_info) {
      return std::string(std::get<0>(param_info.param) == EngineMode::kExplicit
                             ? "Explicit"
                             : "Decomposed") +
             "_" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Generator self-checks
// ---------------------------------------------------------------------------

TEST(PipelineGeneratorTest, DeterministicPerSeed) {
  for (uint32_t seed : {0u, 7u, 123u}) {
    GeneratedPipeline a = PipelineGenerator(seed).Generate();
    GeneratedPipeline b = PipelineGenerator(seed).Generate();
    EXPECT_EQ(a.setup, b.setup);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.world_bound, b.world_bound);
  }
}

TEST(PipelineGeneratorTest, DistinctSeedsDiffer) {
  GeneratedPipeline a = PipelineGenerator(1).Generate();
  GeneratedPipeline b = PipelineGenerator(2).Generate();
  EXPECT_NE(a.DebugString(), b.DebugString());
}

TEST(PipelineGeneratorTest, RespectsWorldBudget) {
  for (uint32_t seed = 0; seed < 300; ++seed) {
    GeneratedPipeline p = PipelineGenerator(seed).Generate();
    EXPECT_LE(p.world_bound, PipelineGenerator::Options().world_budget)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Prepared-statement reuse across worlds and world-sets
// ---------------------------------------------------------------------------

// A prepared plan is schema-only (engine/prepared.h): executing ONE
// prepared statement, in sequence, against every world of a world-set —
// and then against a second, schema-compatible world-set whose contents
// were mutated by extra DML — must reproduce exactly what a freshly
// prepared execution computes in each world. This catches stale bindings
// (a plan capturing a table pointer or rows from the world it was planned
// against) and leaked world state (subquery results or join indexes
// bleeding from one execution into the next).
class PreparedReuseTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PreparedReuseTest, OnePlanManyWorldSets) {
  const uint32_t seed = GetParam();
  GeneratedPipeline pipeline = PipelineGenerator(seed).Generate();
  const std::string ctx =
      "seed " + std::to_string(seed) + "\npipeline:\n" + pipeline.DebugString();

  // World-set A: the generated pipeline as-is. World-set B: same schemas,
  // different contents (extra DML against the root base table).
  Session session_a(OptionsFor(EngineMode::kExplicit));
  Session session_b(OptionsFor(EngineMode::kExplicit));
  for (const std::string& sql : pipeline.setup) {
    auto a = session_a.Execute(sql);
    auto b = session_b.Execute(sql);
    ASSERT_EQ(a.ok(), b.ok()) << ctx;
  }
  for (const char* mutation :
       {"insert into B0 values (0, 5, 4, 'x'), (1, 2, 8, 'y');",
        "delete from B0 where V = 3;"}) {
    ASSERT_TRUE(session_b.Execute(mutation).ok()) << ctx;
  }

  constexpr size_t kMaxWorlds = 32;
  auto worlds_a = session_a.world_set().MaterializeWorlds(kMaxWorlds);
  auto worlds_b = session_b.world_set().MaterializeWorlds(kMaxWorlds);
  ASSERT_TRUE(worlds_a.ok() && worlds_b.ok()) << ctx;
  ASSERT_FALSE(worlds_a->empty()) << ctx;

  std::vector<const Database*> databases;
  for (const auto& w : *worlds_a) databases.push_back(&w.db);
  for (const auto& w : *worlds_b) databases.push_back(&w.db);

  for (const std::string& probe : pipeline.probes) {
    auto parsed = sql::Parser::ParseStatement(probe);
    ASSERT_TRUE(parsed.ok()) << ctx << "\nprobe: " << probe;
    if ((*parsed)->kind != sql::StatementKind::kSelect) continue;
    const auto& select = static_cast<const sql::SelectStatement&>(**parsed);
    std::unique_ptr<sql::SelectStatement> core = worlds::StripWorldOps(select);

    auto plan = engine::PreparedSelect::Prepare(*core, (*worlds_a)[0].db);
    if (!plan.ok()) {
      // A statement that cannot be prepared must also fail unprepared.
      EXPECT_FALSE(engine::ExecuteSelect(*core, (*worlds_a)[0].db).ok())
          << ctx << "\nprobe core: " << probe;
      continue;
    }
    for (size_t i = 0; i < databases.size(); ++i) {
      const std::string wctx = ctx + "\nprobe core of: " + probe +
                               "\nworld " + std::to_string(i) +
                               (i < worlds_a->size() ? " (set A)" : " (set B)");
      auto reused = plan->Execute(*databases[i]);
      auto fresh = engine::ExecuteSelect(*core, *databases[i]);
      ASSERT_EQ(reused.ok(), fresh.ok())
          << wctx << "\n reused: " << reused.status().ToString()
          << "\n fresh:  " << fresh.status().ToString();
      if (!reused.ok()) continue;
      ASSERT_EQ(reused->schema().num_columns(), fresh->schema().num_columns())
          << wctx;
      for (size_t c = 0; c < reused->schema().num_columns(); ++c) {
        EXPECT_EQ(reused->schema().column(c).type, fresh->schema().column(c).type)
            << wctx << " (column " << c << ")";
      }
      ExpectTablesAgree(*fresh, *reused, wctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedReuseTest,
                         ::testing::Range(uint32_t{0}, uint32_t{40}));

// The 300-seed corpus must collectively exercise the whole I-SQL surface
// the harness claims to cover; a generator regression that silently stops
// emitting a clause would otherwise weaken the oracle unnoticed.
TEST(PipelineGeneratorTest, CorpusCoversISqlSurface) {
  std::string corpus;
  for (uint32_t seed = 0; seed < 300; ++seed) {
    corpus += PipelineGenerator(seed).Generate().DebugString();
  }
  for (const char* feature :
       {"repair by key", "choice of", "weight W", "assert exists",
        "group worlds by", "select possible", "select certain",
        "select conf", "insert into", "delete from", "update ", "where",
        "sum(V)", "count(*)", "union", "intersect", "except", "exists(",
        "between", " a, ", "left join ", " join ", " on a.K = b.K",
        " in (select", "< (select",
        // PR 4 surface: views, ordered prefixes, richer UPDATE shapes.
        "create view", " from V0", " order by 1", " desc", " limit ",
        "set V = V + W", "set W = V * 2", ", W = W + 1",
        "K in (select K from",
        // PR 5 surface: REAL repair/choice weights (W retyped via
        // `W + 0.5 as W`), the invalid TEXT weight column, repair
        // chains (C2 exists only as the third link of a chain), and the
        // streaming grouped tails (grouped quantifiers over probe-level
        // repair, and assert before group worlds by).
        "W + 0.5 as W", "weight G", "create table C2",
        "repair by key K group worlds by", ") group worlds by"}) {
    EXPECT_NE(corpus.find(feature), std::string::npos)
        << "corpus never exercises: " << feature;
  }
}

// At least one pipeline in the corpus must carry a FULL depth-3 repair
// chain — every link with an actual `repair by key` clause (links degrade
// to plain copies when over the world budget, so this guards against a
// budget/ordering regression that silently stops exercising deep chains).
TEST(PipelineGeneratorTest, CorpusContainsFullDepth3RepairChain) {
  auto link_repairs = [](const GeneratedPipeline& p, const std::string& name) {
    for (const std::string& s : p.setup) {
      if (s.find("create table " + name + " ") == 0) {
        return s.find(" repair by key") != std::string::npos;
      }
    }
    return false;
  };
  int full_chains = 0;
  for (uint32_t seed = 0; seed < 300; ++seed) {
    GeneratedPipeline p = PipelineGenerator(seed).Generate();
    if (link_repairs(p, "C0") && link_repairs(p, "C1") &&
        link_repairs(p, "C2")) {
      ++full_chains;
    }
  }
  EXPECT_GE(full_chains, 1) << "no seed in 0..299 produces a repair chain "
                               "of depth 3 with all links repairing";
}

}  // namespace
}  // namespace maybms
