#include "worlds/explicit_world_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <utility>

#include "base/query_context.h"
#include "worlds/world_pipeline.h"

namespace maybms::worlds {

namespace {

/// The explicit engine's world source: its stored worlds, read in place.
class StoredWorlds final : public WorldSource {
 public:
  explicit StoredWorlds(const std::vector<World>& worlds) : worlds_(worlds) {}
  size_t size() const override { return worlds_.size(); }
  const Database& schema_db() const override { return worlds_.front().db; }
  const World& Get(size_t i, WorldScratch* /*scratch*/) const override {
    return worlds_[i];
  }
  bool decoded() const override { return false; }

 private:
  const std::vector<World>& worlds_;
};

}  // namespace

ExplicitWorldSet::ExplicitWorldSet(uint64_t max_worlds, size_t threads)
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
  // in every world or in none. The pass computes every world's new
  // target instance against the live worlds, which it only reads; the
  // new worlds (sharing every other table, and the target wherever the
  // statement left it unchanged) are swapped in only after every world
  // succeeded, so a failure in any world leaves the set untouched.
  MAYBMS_ASSIGN_OR_RETURN(const std::string target, DmlTarget(stmt));
  MAYBMS_ASSIGN_OR_RETURN(
      std::vector<PipelineWorld> updated,
      RunDmlInEveryWorld(StoredWorlds(worlds()), stmt, catalog, threads_,
                         max_worlds_));
  std::vector<World> next = worlds();
  for (size_t i = 0; i < next.size(); ++i) {
    next[i].db.PutRelation(target, std::move(updated[i].answer));
  }
  worlds_ = std::make_shared<const std::vector<World>>(std::move(next));
  return Status::OK();
}

Result<SelectEvaluation> ExplicitWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  const size_t keep =
      stmt.quantifier == sql::WorldQuantifier::kNone ? max_worlds : 0;
  MAYBMS_ASSIGN_OR_RETURN(
      PipelineResult result,
      RunWorldPipeline(StoredWorlds(worlds()), stmt,
                       {.keep_worlds = keep,
                        .threads = threads_,
                        .max_worlds = max_worlds_}));
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
                       {.result_name = name,
                        .keep_worlds = std::numeric_limits<size_t>::max(),
                        .threads = threads_,
                        .max_worlds = max_worlds_}));
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
  // Adopt probabilities verbatim — no renormalization, which could
  // perturb the doubles and break byte-identical restored results.
  worlds_ = std::make_shared<const std::vector<World>>(std::move(worlds));
  return Status::OK();
}

}  // namespace maybms::worlds
