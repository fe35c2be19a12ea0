#include "worlds/explicit_world_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <utility>

#include "base/query_context.h"
#include "base/thread_pool.h"
#include "engine/dml.h"
#include "worlds/world_pipeline.h"

namespace maybms::worlds {

namespace {

/// The explicit engine's world source: its stored worlds, read in place.
class StoredWorlds final : public WorldSource {
 public:
  explicit StoredWorlds(const std::vector<World>& worlds) : worlds_(worlds) {}
  size_t size() const override { return worlds_.size(); }
  const Database& schema_db() const override { return worlds_.front().db; }
  const World& Get(size_t i, World* /*scratch*/) const override {
    return worlds_[i];
  }

 private:
  const std::vector<World>& worlds_;
};

}  // namespace

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

PipelineOptions ExplicitWorldSet::Options(const std::string& result_name,
                                          size_t keep_worlds) const {
  PipelineOptions options;
  options.result_name = result_name;
  options.keep_worlds = keep_worlds;
  options.threads = threads_;
  options.fan_out_cap = max_worlds_;
  options.fan_out_error = Status::Unsupported(
      "explicit world-set would exceed the configured cap of " +
      std::to_string(max_worlds_) + " worlds; use the decomposed engine");
  return options;
}

Result<SelectEvaluation> ExplicitWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  const size_t keep =
      stmt.quantifier == sql::WorldQuantifier::kNone ? max_worlds : 0;
  MAYBMS_ASSIGN_OR_RETURN(
      PipelineResult result,
      RunWorldPipeline(StoredWorlds(worlds()), stmt,
                       Options("__result", keep)));
  return ToSelectEvaluation(std::move(result));
}

Status ExplicitWorldSet::MaterializeSelect(const std::string& name,
                                           const sql::SelectStatement& stmt) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  // Compute-then-commit: the pipeline only reads the live worlds, so a
  // mid-pipeline error (e.g. `choice of` over an empty relation, or the
  // world cap) leaves the world-set untouched. Each survivor shares every
  // table of its source world plus the new relation.
  MAYBMS_ASSIGN_OR_RETURN(
      PipelineResult result,
      RunWorldPipeline(StoredWorlds(worlds()), stmt,
                       Options(name, std::numeric_limits<size_t>::max())));
  std::vector<World> next;
  next.reserve(result.worlds.size());
  for (const PipelineWorld& survivor : result.worlds) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    World world(worlds()[survivor.source_index].db, survivor.probability);
    world.db.PutRelation(name, survivor.answer);
    next.push_back(std::move(world));
  }
  worlds_ = std::make_shared<const std::vector<World>>(std::move(next));
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
