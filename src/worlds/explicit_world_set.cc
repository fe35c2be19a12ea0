#include "worlds/explicit_world_set.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <random>
#include <utility>

#include "base/query_context.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "engine/dml.h"
#include "engine/executor.h"
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "engine/prepared.h"
#include "worlds/combiner.h"
#include "worlds/partition.h"

namespace maybms::worlds {

namespace {

/// Canonical map key for group-worlds-by: the sorted distinct rows of the
/// grouping query answer.
std::vector<Tuple> GroupKeyRows(const Table& table) {
  return table.SortedDistinct().rows();
}

/// Enumerates every repair/choice combination of every input world, in
/// parallel within each input world: plans the source pipeline once and
/// the projection once per thread slot, partitions each world's source
/// relation, enforces the world cap (error text is part of the
/// conformance surface), and emits one derived world per combination.
///
/// Combination `c` of a world is decoded from the per-block mixed-radix
/// odometer (block 0 is the least-significant digit), so emission index
/// order — and with it probability multiplication order and first-error
/// choice — is exactly the sequential odometer walk at any thread count.
///
/// Per input world: `begin_world(combos)` sizes the caller's per-chunk
/// state, `emit(global_index, slot, chunk, world, prob, result)` runs on
/// pool threads (chunk geometry is ThreadPool::ChunkSize(combos)), and
/// `end_world()` runs on the caller thread afterwards to merge chunk
/// state in chunk order. Input worlds advance strictly in sequence, so
/// error interleaving (world i's combos before world i+1's partition)
/// matches the sequential engine. Shared by the materializing pipeline
/// and the streaming quantifier paths so cap semantics cannot drift.
template <typename BeginWorld, typename Emit, typename EndWorld>
Status EnumerateRepairChoiceWorlds(base::ThreadPool& pool, size_t threads,
                                   const std::vector<World>& input,
                                   const sql::SelectStatement& stmt,
                                   const sql::SelectStatement& core,
                                   size_t max_worlds, BeginWorld&& begin_world,
                                   Emit&& emit, EndWorld&& end_world) {
  std::optional<engine::PreparedFromWhere> source_plan;
  // Projections lazily build subquery-plan caches during Execute, so each
  // thread slot owns one (base/thread_pool.h rule 3). Slot 0's is
  // prepared eagerly so preparation errors surface exactly where the
  // sequential code surfaced them; preparation is schema-only and
  // deterministic, so a lazy slot>0 preparation can never fail first.
  std::vector<std::optional<engine::PreparedProjection>> projections(
      pool.Slots(threads));
  uint64_t produced = 0;
  for (const World& world : input) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    if (!source_plan.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(
          source_plan, engine::PreparedFromWhere::Prepare(stmt, world.db));
      MAYBMS_ASSIGN_OR_RETURN(projections[0],
                              engine::PreparedProjection::Prepare(
                                  core, world.db,
                                  source_plan->output_schema()));
    }
    MAYBMS_ASSIGN_OR_RETURN(Table source, source_plan->Execute(world.db));
    std::vector<PartitionBlock> blocks;
    if (stmt.repair.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(blocks, RepairPartition(source, *stmt.repair));
    } else {
      MAYBMS_ASSIGN_OR_RETURN(blocks, ChoicePartition(source, *stmt.choice));
    }

    uint64_t combos = 1;
    for (const PartitionBlock& b : blocks) {
      combos *= static_cast<uint64_t>(b.choices.size());
      if (combos > max_worlds) {
        return Status::Unsupported(
            "explicit world-set would exceed the configured cap of " +
            std::to_string(max_worlds) + " worlds; use the decomposed engine");
      }
    }
    if (produced + combos > max_worlds) {
      return Status::Unsupported(
          "explicit world-set would exceed the configured cap of " +
          std::to_string(max_worlds) + " worlds; use the decomposed engine");
    }
    const uint64_t base = produced;
    produced += combos;
    // Fan-out is THE world-budget charge site: combos derived worlds come
    // into existence here regardless of which pipeline consumes them.
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(combos));

    begin_world(static_cast<size_t>(combos));
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        static_cast<size_t>(combos), threads,
        [&](size_t c, size_t slot, size_t chunk) -> Status {
          if (!projections[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(projections[slot],
                                    engine::PreparedProjection::Prepare(
                                        core, world.db,
                                        source_plan->output_schema()));
          }
          // Decode combination c: pick[b] is digit b of c, block 0 least
          // significant — the sequential odometer's increment order. An
          // empty block list (repair of an empty relation) yields exactly
          // the single empty choice c == 0.
          double prob = world.probability;
          std::vector<size_t> rows;
          uint64_t rem = c;
          for (const PartitionBlock& block : blocks) {
            const size_t digit =
                static_cast<size_t>(rem % block.choices.size());
            rem /= block.choices.size();
            const WeightedChoice& choice = block.choices[digit];
            prob *= choice.probability;
            rows.insert(rows.end(), choice.row_indices.begin(),
                        choice.row_indices.end());
          }
          std::vector<Tuple> chosen;
          chosen.reserve(rows.size());
          for (size_t r : rows) chosen.push_back(source.row(r));
          MAYBMS_ASSIGN_OR_RETURN(Table result,
                                  projections[slot]->Execute(world.db, chosen));
          // Memory-budget charge for the per-world answer, here so every
          // consumer (materializing, streaming, grouped) pays it exactly
          // once per combination.
          MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
              result.num_rows(), result.schema().num_columns())));
          return emit(static_cast<size_t>(base) + c, slot, chunk, world, prob,
                      std::move(result));
        }));
    MAYBMS_RETURN_NOT_OK(end_world());
  }
  return Status::OK();
}

}  // namespace

std::unique_ptr<sql::SelectStatement> StripWorldOps(
    const sql::SelectStatement& stmt) {
  std::unique_ptr<sql::SelectStatement> core = stmt.Clone();
  core->quantifier = sql::WorldQuantifier::kNone;
  core->repair.reset();
  core->choice.reset();
  core->assert_condition.reset();
  core->group_worlds_by.reset();
  return core;
}

ExplicitWorldSet::ExplicitWorldSet(size_t max_worlds, size_t threads)
    : worlds_(std::make_shared<const std::vector<World>>(
          std::vector<World>{World(Database(), 1.0)})),
      max_worlds_(max_worlds),
      threads_(threads) {}

std::unique_ptr<WorldSet> ExplicitWorldSet::Clone() const {
  return std::make_unique<ExplicitWorldSet>(*this);
}

void ExplicitWorldSet::MoveFrom(WorldSet&& other) {
  *this = std::move(static_cast<ExplicitWorldSet&>(other));
}

double ExplicitWorldSet::Log10NumWorlds() const {
  return std::log10(static_cast<double>(worlds().size()));
}

std::vector<std::string> ExplicitWorldSet::RelationNames() const {
  return worlds().empty() ? std::vector<std::string>{}
                          : worlds().front().db.RelationNames();
}

bool ExplicitWorldSet::HasRelation(const std::string& name) const {
  return !worlds().empty() && worlds().front().db.HasRelation(name);
}

Result<std::vector<World>> ExplicitWorldSet::MaterializeWorlds(
    size_t max_worlds, bool* truncated) const {
  if (truncated != nullptr) *truncated = worlds().size() > max_worlds;
  if (worlds().size() <= max_worlds) return worlds();
  return std::vector<World>(worlds().begin(), worlds().begin() + max_worlds);
}

Result<std::vector<World>> ExplicitWorldSet::TopKWorlds(size_t k) const {
  std::vector<size_t> order(worlds().size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return worlds()[a].probability > worlds()[b].probability;
  });
  std::vector<World> top;
  top.reserve(std::min(k, order.size()));
  for (size_t i = 0; i < order.size() && top.size() < k; ++i) {
    // Same budget semantics as the decomposed engine: one charge per
    // enumerated world, so which engine holds the data cannot change
    // whether a statement fits its world budget.
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    top.push_back(worlds()[order[i]]);
  }
  return top;
}

Result<World> ExplicitWorldSet::SampleWorld(base::SplitMix64* rng) const {
  if (worlds().empty()) return Status::EmptyWorldSet("no worlds to sample");
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  double u = uniform(*rng);
  double cumulative = 0;
  for (const World& world : worlds()) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    cumulative += world.probability;
    if (u <= cumulative) return world;
  }
  return worlds().back();  // numeric slack
}

Status ExplicitWorldSet::CreateBaseTable(const std::string& name,
                                         const Table& prototype) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  // One shared instance for every world: the relation starts out
  // identical everywhere, so storing it is W handle bumps, not W copies.
  // The first world that mutates it clones its own copy (COW).
  auto shared = std::make_shared<Table>(prototype);
  // One poll BEFORE the loop, none inside: each iteration is an O(1)
  // handle bump, and aborting mid-loop would leave the relation present
  // in some worlds only — a cancellation point must never tear state.
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  std::vector<World> next = worlds();
  for (World& world : next) world.db.PutRelation(name, shared);
  worlds_ = std::make_shared<const std::vector<World>>(std::move(next));
  return Status::OK();
}

Status ExplicitWorldSet::DropRelation(const std::string& name) {
  if (!HasRelation(name)) {
    return Status::NotFound("relation not found: " + name);
  }
  // Poll before the loop only: dropping from a prefix of the worlds and
  // then aborting would tear the set (see CreateBaseTable).
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  std::vector<World> next = worlds();
  for (World& world : next) {
    MAYBMS_RETURN_NOT_OK(world.db.DropRelation(name));
  }
  worlds_ = std::make_shared<const std::vector<World>>(std::move(next));
  return Status::OK();
}

Status ExplicitWorldSet::ApplyDml(const sql::Statement& stmt,
                                  const Catalog& catalog) {
  // Possible-worlds update semantics (paper §2): the update must commit
  // in every world or in none. Snapshot/rollback commit protocol: each
  // world's post-statement database is computed against a copy-on-write
  // snapshot (O(#relations) handle bumps; only the statement's target
  // relation is rewritten, every untouched relation stays shared with the
  // live world) and recorded in a commit log. The log is swapped into
  // `worlds_` only after every world succeeded; any per-world failure
  // (e.g. a constraint violation) simply drops the log, leaving the set
  // untouched — the PR 1 atomicity guarantee without copying unchanged
  // relations.
  //
  // Snapshots are computed in parallel; each world is touched by exactly
  // one thread and the live set is read-only until the final swap. When
  // several worlds fail, the error of the smallest world index is
  // reported (ThreadPool rule 2) — the same error the sequential loop
  // hit first, so rollback behavior is deterministic at any thread count.
  if (worlds().empty()) return Status::OK();
  base::ThreadPool& pool = base::ThreadPool::Shared();
  // The statement is planned once per thread slot (column resolution,
  // INSERT ... SELECT preparation, subquery analysis) against one world's
  // schemas — identical in every world — and only executed per world.
  // Slot 0 prepares eagerly so preparation errors surface before any
  // world executes, exactly as in the sequential code.
  std::vector<std::optional<engine::PreparedDml>> plans(pool.Slots(threads_));
  MAYBMS_ASSIGN_OR_RETURN(
      plans[0], engine::PreparedDml::Prepare(stmt, worlds()[0].db, &catalog));
  std::vector<Database> commit_log(worlds().size());
  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      worlds().size(), threads_,
      [&](size_t i, size_t slot, size_t /*chunk*/) -> Status {
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot],
              engine::PreparedDml::Prepare(stmt, worlds()[i].db, &catalog));
        }
        Database snapshot = worlds()[i].db;  // shares every table handle
        MAYBMS_RETURN_NOT_OK(plans[slot]->Execute(&snapshot));
        commit_log[i] = std::move(snapshot);
        return Status::OK();
      }));
  std::vector<World> next;
  next.reserve(commit_log.size());
  for (size_t i = 0; i < commit_log.size(); ++i) {
    next.emplace_back(std::move(commit_log[i]), worlds()[i].probability);
  }
  worlds_ = std::make_shared<const std::vector<World>>(std::move(next));
  return Status::OK();
}

void ExplicitWorldSet::SetWorlds(std::vector<World> worlds) {
  // Pure O(1)-per-world arithmetic over an already-materialized vector
  // (whose construction was the governed, charged part), and the whole
  // normalize-and-swap must be atomic — aborting between the two loops
  // would install half-normalized probabilities.
  double total = 0;
  // maybms-lint: allow(ungoverned-world-loop)
  for (const World& w : worlds) total += w.probability;
  if (total > 0) {
    // maybms-lint: allow(ungoverned-world-loop)
    for (World& w : worlds) w.probability /= total;
  }
  worlds_ = std::make_shared<const std::vector<World>>(std::move(worlds));
}

Result<ExplicitWorldSet::PipelineOutput> ExplicitWorldSet::RunPipeline(
    std::vector<World> input, const sql::SelectStatement& stmt,
    const std::string& result_name, bool want_per_world_results) const {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));

  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  base::ThreadPool& pool = base::ThreadPool::Shared();
  const size_t slots = pool.Slots(threads_);

  PipelineOutput out;

  // When a quantifier collapses the answer and no assert/grouping needs
  // per-world results later, stream each world's answer straight into a
  // per-chunk combiner instead of storing it in the world — no per-world
  // result table outlives its own combination step. Chunk combiners merge
  // in chunk order (deterministic at any thread count).
  const bool stream_feed = stmt.quantifier != sql::WorldQuantifier::kNone &&
                           !stmt.group_worlds_by && !stmt.assert_condition;
  std::optional<QuantifierCombiner> stream_combiner;
  if (stream_feed) {
    MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner c,
                            QuantifierCombiner::Create(stmt.quantifier));
    stream_combiner.emplace(std::move(c));
  }
  std::vector<std::optional<QuantifierCombiner>> chunk_combiners;
  auto feed_chunk = [&](size_t chunk, double prob,
                        const Table& result) -> Status {
    if (!chunk_combiners[chunk].has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(chunk_combiners[chunk],
                              QuantifierCombiner::Create(stmt.quantifier));
    }
    chunk_combiners[chunk]->Feed(prob, result);
    return Status::OK();
  };
  auto merge_chunks = [&] {
    for (auto& c : chunk_combiners) {
      if (c.has_value()) stream_combiner->Merge(std::move(*c));
    }
    chunk_combiners.clear();
  };

  // --- Step 1: per-world SQL core, with repair/choice world creation. ---
  // Statements are planned once per thread slot (all worlds share one
  // schema catalog; see engine/prepared.h) and executed per world; only
  // scans, joins, and predicate evaluation repeat. Worlds are
  // index-stamped into `out.worlds`, so emission order is identical to
  // the sequential engine at any thread count.
  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    MAYBMS_RETURN_NOT_OK(EnumerateRepairChoiceWorlds(
        pool, threads_, input, stmt, *core, max_worlds_,
        [&](size_t combos) {
          out.worlds.resize(out.worlds.size() + combos);
          if (stream_feed) {
            chunk_combiners.clear();
            chunk_combiners.resize(base::ThreadPool::NumChunks(combos));
          }
        },
        [&](size_t global, size_t /*slot*/, size_t chunk, const World& world,
            double prob, Table result) -> Status {
          World derived(world.db, prob);
          if (stream_feed) {
            MAYBMS_RETURN_NOT_OK(feed_chunk(chunk, prob, result));
          } else {
            derived.db.PutRelation(result_name, std::move(result));
          }
          out.worlds[global] = std::move(derived);
          return Status::OK();
        },
        [&]() -> Status {
          if (stream_feed) merge_chunks();
          return Status::OK();
        }));
  } else {
    const size_t n = input.size();
    std::vector<std::optional<engine::PreparedSelect>> plans(slots);
    if (n > 0) {
      MAYBMS_ASSIGN_OR_RETURN(
          plans[0], engine::PreparedSelect::Prepare(*core, input[0].db));
    }
    if (stream_feed) chunk_combiners.resize(base::ThreadPool::NumChunks(n));
    out.worlds.resize(n);
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        n, threads_, [&](size_t i, size_t slot, size_t chunk) -> Status {
          if (!plans[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(
                plans[slot], engine::PreparedSelect::Prepare(*core,
                                                             input[i].db));
          }
          MAYBMS_ASSIGN_OR_RETURN(Table result,
                                  plans[slot]->Execute(input[i].db));
          MAYBMS_RETURN_NOT_OK(
              base::GovernChargeBytes(base::EstimateTableBytes(
                  result.num_rows(), result.schema().num_columns())));
          World derived(std::move(input[i].db), input[i].probability);
          if (stream_feed) {
            MAYBMS_RETURN_NOT_OK(feed_chunk(chunk, derived.probability,
                                            result));
          } else {
            derived.db.PutRelation(result_name, std::move(result));
          }
          out.worlds[i] = std::move(derived);
          return Status::OK();
        }));
    if (stream_feed) merge_chunks();
  }

  // --- Step 2: assert — drop worlds, renormalize. ---
  if (stmt.assert_condition) {
    // Predicate evaluation is parallel (per-slot subquery-plan caches,
    // per-world flags); compaction and the probability sum stay in world
    // index order so renormalization is deterministic.
    const size_t n = out.worlds.size();
    std::vector<engine::SubqueryPlanCache> assert_plans(slots);
    std::vector<char> keep(n, 0);
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        n, threads_, [&](size_t i, size_t slot, size_t /*chunk*/) -> Status {
          engine::SubqueryCache cache(&assert_plans[slot]);
          engine::EvalContext ctx{&out.worlds[i].db, nullptr, nullptr,
                                  nullptr, nullptr, &cache};
          MAYBMS_ASSIGN_OR_RETURN(
              Trivalent verdict,
              engine::EvalPredicate(*stmt.assert_condition, ctx));
          keep[i] = verdict == Trivalent::kTrue ? 1 : 0;
          return Status::OK();
        }));
    std::vector<World> surviving;
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      if (keep[i] == 0) continue;
      total += out.worlds[i].probability;
      surviving.push_back(std::move(out.worlds[i]));
    }
    if (surviving.empty()) {
      return Status::EmptyWorldSet("assert eliminated every world");
    }
    // World probabilities are always positive (weights must be positive;
    // see worlds/partition.cc), so survivors imply total > 0. Guard
    // anyway: dividing by zero here would poison every downstream
    // confidence with NaN.
    if (!(total > 0)) {
      return Status::EmptyWorldSet("assert leaves no probability mass");
    }
    // O(1)-per-world renormalization; a mid-loop abort would leave a
    // half-normalized survivor set.
    // maybms-lint: allow(ungoverned-world-loop)
    for (World& world : surviving) world.probability /= total;
    out.worlds = std::move(surviving);
  }

  // --- Step 3: group worlds by / possible / certain / conf. ---
  if (stmt.group_worlds_by) {
    if (engine::HasWorldOps(*stmt.group_worlds_by)) {
      return Status::Unsupported(
          "the GROUP WORLDS BY query must be a plain SQL query");
    }
    // Grouping-query answers are computed in parallel; grouping and
    // per-group combination keep world index order.
    const size_t n = out.worlds.size();
    std::vector<std::optional<engine::PreparedSelect>> plans(slots);
    if (n > 0) {
      MAYBMS_ASSIGN_OR_RETURN(plans[0],
                              engine::PreparedSelect::Prepare(
                                  *stmt.group_worlds_by, out.worlds[0].db));
    }
    std::vector<Table> answers(n);
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        n, threads_, [&](size_t i, size_t slot, size_t /*chunk*/) -> Status {
          if (!plans[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(plans[slot],
                                    engine::PreparedSelect::Prepare(
                                        *stmt.group_worlds_by,
                                        out.worlds[i].db));
          }
          MAYBMS_ASSIGN_OR_RETURN(answers[i],
                                  plans[slot]->Execute(out.worlds[i].db));
          return Status::OK();
        }));
    std::map<std::vector<Tuple>, std::vector<size_t>> groups;
    std::map<std::vector<Tuple>, Table> key_tables;
    for (size_t i = 0; i < n; ++i) {
      std::vector<Tuple> key = GroupKeyRows(answers[i]);
      key_tables.emplace(key, answers[i].SortedDistinct());
      groups[std::move(key)].push_back(i);
    }
    for (const auto& [key, members] : groups) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      double group_prob = 0;
      for (size_t i : members) group_prob += out.worlds[i].probability;
      MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                              QuantifierCombiner::Create(stmt.quantifier));
      for (size_t i : members) {
        MAYBMS_ASSIGN_OR_RETURN(const Table* result,
                                out.worlds[i].db.GetRelation(result_name));
        combiner.Feed(
            group_prob > 0 ? out.worlds[i].probability / group_prob : 0,
            *result);
      }
      MAYBMS_ASSIGN_OR_RETURN(Table combined, combiner.Finish());
      // All member worlds hold the identical group result: store one
      // shared instance instead of one copy per world.
      auto shared = std::make_shared<Table>(combined);
      for (size_t i : members) {
        out.worlds[i].db.PutRelation(result_name, shared);
      }
      out.groups.push_back(SelectEvaluation::GroupResult{
          group_prob, key_tables.at(key), std::move(combined)});
    }
  } else if (stmt.quantifier != sql::WorldQuantifier::kNone) {
    Table combined;
    if (stream_feed) {
      // Step 1 already fed every world's answer; nothing was retained.
      MAYBMS_ASSIGN_OR_RETURN(combined, stream_combiner->Finish());
    } else {
      // Post-assert: feed each surviving world's answer into a per-chunk
      // combiner and drop it immediately, then merge in chunk order.
      MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                              QuantifierCombiner::Create(stmt.quantifier));
      const size_t n = out.worlds.size();
      chunk_combiners.resize(base::ThreadPool::NumChunks(n));
      MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
          n, threads_,
          [&](size_t i, size_t /*slot*/, size_t chunk) -> Status {
            MAYBMS_ASSIGN_OR_RETURN(
                const Table* result,
                out.worlds[i].db.GetRelation(result_name));
            MAYBMS_RETURN_NOT_OK(
                feed_chunk(chunk, out.worlds[i].probability, *result));
            return out.worlds[i].db.DropRelation(result_name);
          }));
      for (auto& c : chunk_combiners) {
        if (c.has_value()) combiner.Merge(std::move(*c));
      }
      chunk_combiners.clear();
      MAYBMS_ASSIGN_OR_RETURN(combined, combiner.Finish());
    }
    // The quantifier collapsed the answer to one certain relation that is
    // identical in every world: share a single instance across all of
    // them (W handle bumps, not W row copies).
    auto shared = std::make_shared<Table>(combined);
    for (World& world : out.worlds) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      world.db.PutRelation(result_name, shared);
    }
    out.combined = std::move(combined);
  }

  // Per-world answers are only consumed by EvaluateSelect for plain
  // (quantifier-free) statements; quantifier results collapse to
  // `combined`/`groups` above and MaterializeSelect never reads them.
  if (want_per_world_results &&
      stmt.quantifier == sql::WorldQuantifier::kNone) {
    const size_t n = out.worlds.size();
    out.per_world_results.resize(n);
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        n, threads_, [&](size_t i, size_t /*slot*/, size_t /*chunk*/)
                         -> Status {
          MAYBMS_ASSIGN_OR_RETURN(const Table* result,
                                  out.worlds[i].db.GetRelation(result_name));
          out.per_world_results[i] =
              std::make_pair(out.worlds[i].probability, *result);
          return Status::OK();
        }));
  }
  return out;
}


Result<Table> ExplicitWorldSet::EvaluateQuantifierStreaming(
    const sql::SelectStatement& stmt) const {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);

  MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                          QuantifierCombiner::Create(stmt.quantifier));
  base::ThreadPool& pool = base::ThreadPool::Shared();
  const size_t slots = pool.Slots(threads_);

  // Parallel streaming: each chunk of worlds folds into its own combiner
  // and survival accumulators; chunks merge in chunk-index order, so the
  // combined answer and the renormalization sum are byte-identical at
  // every thread count (base/thread_pool.h rule 1).
  struct ChunkAcc {
    std::optional<QuantifierCombiner> combiner;
    double prob = 0;
    size_t survivors = 0;
  };
  std::vector<ChunkAcc> chunks;
  double surviving_prob = 0;
  size_t survivors = 0;
  // Assert-condition subquery analysis is shared per thread slot; results
  // stay per world (fresh SubqueryCache per evaluation).
  std::vector<engine::SubqueryPlanCache> assert_plans(slots);

  // The assert condition can only see the statement's own answer if it
  // literally names the internal "__result" relation; copying the world
  // database to expose it is reserved for that (pathological) case so
  // the common assert stays copy-free.
  bool assert_reads_result = false;
  if (stmt.assert_condition) {
    std::set<std::string> assert_refs;
    CollectReferencedRelations(*stmt.assert_condition, &assert_refs);
    assert_reads_result = assert_refs.count("__result") > 0;
  }

  // Folds one world's answer into its chunk's combiner, applying the
  // assert filter first. `result` dies here — nothing per-world is
  // retained.
  auto feed = [&](double prob, Table result, const Database& db, size_t slot,
                  size_t chunk) -> Status {
    ChunkAcc& acc = chunks[chunk];
    if (!acc.combiner.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(acc.combiner,
                              QuantifierCombiner::Create(stmt.quantifier));
    }
    if (stmt.assert_condition) {
      engine::SubqueryCache cache(&assert_plans[slot]);
      if (assert_reads_result) {
        Database extended = db;
        extended.PutRelation("__result", std::move(result));
        engine::EvalContext ctx{&extended, nullptr, nullptr, nullptr, nullptr,
                                &cache};
        MAYBMS_ASSIGN_OR_RETURN(
            Trivalent keep,
            engine::EvalPredicate(*stmt.assert_condition, ctx));
        if (keep != Trivalent::kTrue) return Status::OK();
        MAYBMS_ASSIGN_OR_RETURN(const Table* kept,
                                extended.GetRelation("__result"));
        acc.combiner->Feed(prob, *kept);
      } else {
        engine::EvalContext ctx{&db, nullptr, nullptr, nullptr, nullptr,
                                &cache};
        MAYBMS_ASSIGN_OR_RETURN(
            Trivalent keep,
            engine::EvalPredicate(*stmt.assert_condition, ctx));
        if (keep != Trivalent::kTrue) return Status::OK();
        acc.combiner->Feed(prob, result);
      }
    } else {
      acc.combiner->Feed(prob, result);
    }
    acc.prob += prob;
    ++acc.survivors;
    return Status::OK();
  };
  auto merge_chunks = [&] {
    for (ChunkAcc& acc : chunks) {
      if (acc.combiner.has_value()) combiner.Merge(std::move(*acc.combiner));
      surviving_prob += acc.prob;
      survivors += acc.survivors;
    }
    chunks.clear();
  };

  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    MAYBMS_RETURN_NOT_OK(EnumerateRepairChoiceWorlds(
        pool, threads_, worlds(), stmt, *core, max_worlds_,
        [&](size_t combos) {
          chunks.resize(base::ThreadPool::NumChunks(combos));
        },
        [&](size_t /*global*/, size_t slot, size_t chunk, const World& world,
            double prob, Table result) -> Status {
          return feed(prob, std::move(result), world.db, slot, chunk);
        },
        [&]() -> Status {
          merge_chunks();
          return Status::OK();
        }));
  } else {
    const size_t n = worlds().size();
    std::vector<std::optional<engine::PreparedSelect>> plans(slots);
    if (n > 0) {
      MAYBMS_ASSIGN_OR_RETURN(
          plans[0], engine::PreparedSelect::Prepare(*core, worlds()[0].db));
    }
    chunks.resize(base::ThreadPool::NumChunks(n));
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        n, threads_, [&](size_t i, size_t slot, size_t chunk) -> Status {
          if (!plans[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(
                plans[slot],
                engine::PreparedSelect::Prepare(*core, worlds()[i].db));
          }
          MAYBMS_ASSIGN_OR_RETURN(Table result,
                                  plans[slot]->Execute(worlds()[i].db));
          MAYBMS_RETURN_NOT_OK(
              base::GovernChargeBytes(base::EstimateTableBytes(
                  result.num_rows(), result.schema().num_columns())));
          return feed(worlds()[i].probability, std::move(result),
                      worlds()[i].db, slot, chunk);
        }));
    merge_chunks();
  }

  if (stmt.assert_condition) {
    if (survivors == 0) {
      return Status::EmptyWorldSet("assert eliminated every world");
    }
    // Fed weights were pre-assert probabilities; renormalize over the
    // surviving mass, exactly as the materializing pipeline does.
    // (Survivors have positive probability, so surviving_prob > 0 and
    // Finish cannot hit its zero-mass guard here.)
    return combiner.Finish(surviving_prob);
  }
  return combiner.Finish();
}

Result<std::vector<SelectEvaluation::GroupResult>>
ExplicitWorldSet::EvaluateGroupedStreaming(
    const sql::SelectStatement& stmt) const {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  if (engine::HasWorldOps(*stmt.group_worlds_by)) {
    return Status::Unsupported(
        "the GROUP WORLDS BY query must be a plain SQL query");
  }
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  base::ThreadPool& pool = base::ThreadPool::Shared();
  const size_t slots = pool.Slots(threads_);

  // The shared grouped accumulator (worlds/combiner.h): one combiner per
  // distinct group key, fed unnormalized (pre-assert) probabilities and
  // normalized per group at Finish — identical semantics on both engines.
  // Worlds fold into per-chunk grouped combiners merged in chunk order.
  GroupedQuantifierCombiner grouped(stmt.quantifier);
  std::vector<std::optional<GroupedQuantifierCombiner>> chunk_grouped;
  std::vector<engine::SubqueryPlanCache> assert_plans(slots);
  std::vector<std::optional<engine::PreparedSelect>> group_plans(slots);

  // Folds one world: assert filter, group key, feed — the per-world
  // answer dies here; nothing larger than the accumulators is retained.
  auto feed = [&](double prob, Table result, const Database& db, size_t slot,
                  size_t chunk) -> Status {
    if (stmt.assert_condition) {
      engine::SubqueryCache cache(&assert_plans[slot]);
      engine::EvalContext ctx{&db, nullptr, nullptr, nullptr, nullptr,
                              &cache};
      MAYBMS_ASSIGN_OR_RETURN(
          Trivalent keep, engine::EvalPredicate(*stmt.assert_condition, ctx));
      if (keep != Trivalent::kTrue) return Status::OK();
    }
    if (!group_plans[slot].has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(group_plans[slot],
                              engine::PreparedSelect::Prepare(
                                  *stmt.group_worlds_by, db));
    }
    MAYBMS_ASSIGN_OR_RETURN(Table answer, group_plans[slot]->Execute(db));
    if (!chunk_grouped[chunk].has_value()) {
      chunk_grouped[chunk].emplace(stmt.quantifier);
    }
    return chunk_grouped[chunk]->Feed(prob, result, answer);
  };
  auto merge_chunks = [&]() -> Status {
    for (auto& c : chunk_grouped) {
      if (c.has_value()) MAYBMS_RETURN_NOT_OK(grouped.Merge(std::move(*c)));
    }
    chunk_grouped.clear();
    return Status::OK();
  };

  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    MAYBMS_RETURN_NOT_OK(EnumerateRepairChoiceWorlds(
        pool, threads_, worlds(), stmt, *core, max_worlds_,
        [&](size_t combos) {
          chunk_grouped.resize(base::ThreadPool::NumChunks(combos));
        },
        [&](size_t /*global*/, size_t slot, size_t chunk, const World& world,
            double prob, Table result) -> Status {
          return feed(prob, std::move(result), world.db, slot, chunk);
        },
        merge_chunks));
  } else {
    const size_t n = worlds().size();
    std::vector<std::optional<engine::PreparedSelect>> plans(slots);
    if (n > 0) {
      MAYBMS_ASSIGN_OR_RETURN(
          plans[0], engine::PreparedSelect::Prepare(*core, worlds()[0].db));
    }
    chunk_grouped.resize(base::ThreadPool::NumChunks(n));
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        n, threads_, [&](size_t i, size_t slot, size_t chunk) -> Status {
          if (!plans[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(
                plans[slot],
                engine::PreparedSelect::Prepare(*core, worlds()[i].db));
          }
          MAYBMS_ASSIGN_OR_RETURN(Table result,
                                  plans[slot]->Execute(worlds()[i].db));
          MAYBMS_RETURN_NOT_OK(
              base::GovernChargeBytes(base::EstimateTableBytes(
                  result.num_rows(), result.schema().num_columns())));
          return feed(worlds()[i].probability, std::move(result),
                      worlds()[i].db, slot, chunk);
        }));
    MAYBMS_RETURN_NOT_OK(merge_chunks());
  }

  if (stmt.assert_condition && grouped.worlds_fed() == 0) {
    return Status::EmptyWorldSet("assert eliminated every world");
  }
  return grouped.Finish();
}

Result<SelectEvaluation> ExplicitWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  if (stmt.quantifier != sql::WorldQuantifier::kNone &&
      !stmt.group_worlds_by) {
    // possible/certain/conf collapse to one certain relation: stream
    // per-world answers into the combiner without copying any database.
    MAYBMS_ASSIGN_OR_RETURN(Table combined, EvaluateQuantifierStreaming(stmt));
    SelectEvaluation eval;
    eval.combined = std::move(combined);
    return eval;
  }
  if (stmt.quantifier != sql::WorldQuantifier::kNone && stmt.group_worlds_by &&
      !ReferencesInternalResult(stmt)) {
    // Grouped quantifier: per-group-key streaming combination; no
    // per-world answer outlives its own feed.
    MAYBMS_ASSIGN_OR_RETURN(std::vector<SelectEvaluation::GroupResult> groups,
                            EvaluateGroupedStreaming(stmt));
    SelectEvaluation eval;
    eval.groups = std::move(groups);
    return eval;
  }
  MAYBMS_ASSIGN_OR_RETURN(
      PipelineOutput out,
      RunPipeline(worlds(), stmt, "__result", /*want_per_world_results=*/true));
  SelectEvaluation eval;
  eval.combined = std::move(out.combined);
  eval.groups = std::move(out.groups);
  eval.truncated = out.per_world_results.size() > max_worlds;
  if (eval.truncated) out.per_world_results.resize(max_worlds);
  eval.per_world = std::move(out.per_world_results);
  return eval;
}

Status ExplicitWorldSet::MaterializeSelect(const std::string& name,
                                           const sql::SelectStatement& stmt) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  // Snapshot/rollback: the pipeline runs against copy-on-write snapshots
  // of the worlds (the by-value `input` copy is O(worlds × relations)
  // handle bumps; every untouched relation stays shared with the live
  // set), so a mid-pipeline error (e.g. `choice of` over an empty
  // relation, or the world cap) leaves the world-set untouched, matching
  // the decomposed engine's compute-then-commit behavior. Committing
  // swaps the snapshot vector in wholesale.
  MAYBMS_ASSIGN_OR_RETURN(
      PipelineOutput out,
      RunPipeline(worlds(), stmt, name, /*want_per_world_results=*/false));
  worlds_ = std::make_shared<const std::vector<World>>(std::move(out.worlds));
  return Status::OK();
}

Result<storage::DurableSnapshot> ExplicitWorldSet::ToSnapshot() const {
  storage::DurableSnapshot snapshot;
  snapshot.engine = EngineName();
  // Pointer-dedupe: every distinct shared instance appears once in
  // `tables`, so worlds that share a relation instance keep sharing it on
  // disk and after restore.
  std::map<const Table*, size_t> index;
  snapshot.worlds.reserve(worlds().size());
  for (const World& world : worlds()) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    storage::DurableSnapshot::WorldRef world_ref;
    world_ref.probability = world.probability;
    for (const std::string& name : world.db.RelationNames()) {
      MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle handle,
                              world.db.GetRelationHandle(name));
      auto [it, inserted] = index.emplace(handle.get(), snapshot.tables.size());
      if (inserted) snapshot.tables.push_back(std::move(handle));
      world_ref.relations.push_back({name, it->second});
    }
    snapshot.worlds.push_back(std::move(world_ref));
  }
  return snapshot;
}

Status ExplicitWorldSet::FromSnapshot(
    const storage::DurableSnapshot& snapshot) {
  if (snapshot.engine != EngineName()) {
    return Status::InvalidArgument(
        "cannot restore a '" + snapshot.engine +
        "' snapshot into the explicit engine");
  }
  if (snapshot.worlds.empty()) {
    return Status::InvalidArgument(
        "explicit snapshot restore: snapshot has no worlds");
  }
  std::vector<World> worlds;
  worlds.reserve(snapshot.worlds.size());
  for (const auto& world_ref : snapshot.worlds) {
    // Restore builds into a local vector and swaps at the end, so a poll
    // aborting here leaves the live set untouched.
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    World world;
    world.probability = world_ref.probability;
    for (const auto& relation : world_ref.relations) {
      if (relation.table_index >= snapshot.tables.size()) {
        return Status::DataLoss(
            "explicit snapshot restore: table index out of range");
      }
      world.db.PutRelation(relation.name,
                           snapshot.tables[relation.table_index]);
    }
    worlds.push_back(std::move(world));
  }
  // Adopt probabilities verbatim — NOT SetWorlds, whose renormalization
  // could perturb the doubles and break byte-identical restored results.
  worlds_ = std::make_shared<const std::vector<World>>(std::move(worlds));
  return Status::OK();
}

}  // namespace maybms::worlds
