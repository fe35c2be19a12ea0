#ifndef MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_
#define MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_

// World-set decompositions (the paper's core data structure): the
// world-set is a product of independent components over a certain core
// database.
//
// Ownership and invariants:
//  * `certain_` owns every relation's schema and its certain tuples;
//    components only ever hold per-alternative *extra* tuples keyed by
//    (lower-cased) relation name. The schema catalog therefore lives in
//    exactly one place, identical for every world — the invariant the
//    prepared-statement layer (engine/prepared.h) relies on when it
//    plans against `certain_` and executes against local worlds.
//  * Components are independent by construction: each alternative's
//    probabilities sum to 1 within its component, and world probability
//    is the product over components. Operations that would correlate
//    components (joins of uncertain relations, aggregates over them,
//    assert, group worlds by, DML touching them) enumerate the RELEVANT
//    components' sub-product only — never the full product — decoded
//    world by world, never merged up front.
//  * Query plans are schema-only and never capture alternative contents;
//    per-world state (subquery materializations, hash indexes) lives in
//    per-execution caches (engine/planner.h).
//
// Trivalent logic / NULL keys follow the per-world executor everywhere:
// a local world is an ordinary database (certain core + chosen
// alternatives' tuples), so NULL semantics cannot diverge between the
// fast per-alternative path and full enumeration — the differential
// conformance suite enforces this against the explicit engine.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "worlds/component.h"
#include "worlds/row_relevance.h"
#include "worlds/world_pipeline.h"
#include "worlds/world_set.h"

namespace maybms::engine {
class PreparedDml;
}  // namespace maybms::engine

namespace maybms::worlds {

/// MayBMS-style world-set decomposition (WSD): the world-set is the
/// product of independent components over a certain core database.
///
///   worlds = { certain ⊎ a_1 ⊎ ... ⊎ a_m : a_i ∈ component_i }
///
/// `repair by key` over a certain relation creates one component per key
/// group; `choice of` creates a single component — so a repair with n key
/// groups of size g represents g^n worlds in O(n·g) space, the companion
/// ICDE'07 paper's "10^10^6 worlds" point.
///
/// Query processing avoids world enumeration wherever the paper's
/// operations allow. Statements without `assert` and `group worlds by`
/// first try two enumeration-free routes:
///  * the row-local route over one uncertain relation: one pass over the
///    relation's components on the thread pool summarizes every
///    alternative's kept rows, as a slice (selections/projections pushed
///    into each alternative; no merge, structure preserved) or as an
///    aggregate (possible/certain of count or sum, the sumset of the
///    components' values);
///  * the clean repair/choice product over certain relations: one new
///    component per partition block.
/// A slice's and a product's possible/certain/conf use per-component math
/// (conf uses the closed form 1 − ∏_c (1 − p_c(t))). Under possible and
/// certain, and for a slice under conf, a statement reads only the
/// components its WHERE clauses can keep a row of (worlds/row_relevance.h,
/// judged from each component's column ranges). Everything else runs
/// the shared world pipeline over the *relevant* sub-product, decoded
/// lazily world by world; it is never the full world-set and is never
/// materialized. That covers `assert`, `group worlds by`, queries that
/// genuinely correlate components (joins of uncertain relations, other
/// aggregates over them, subqueries), and statements over certain
/// relations only, whose sub-product is one world: the certain core.
/// When every scan of such a statement is row-local (a `conf` of count or
/// sum, an `assert [not] exists`, a row-local grouping query), each world
/// is assembled from one pass's per-alternative summaries instead of
/// running SQL in it, with the same result bit for bit. A
/// `create table ... as` through the pipeline replaces the relevant
/// components with one component of the surviving worlds.
///
/// DML over certain relations runs once on the core. A row-local write
/// to an uncertain relation (engine::PreparedDml::row_local) distributes
/// over the decomposition: an INSERT ... VALUES appends to the core, and
/// an UPDATE or DELETE runs once on the core's rows and once on each
/// alternative's, so only the components it changes get a new instance
/// and none are merged. Any other DML touching an uncertain relation, and
/// a row-local one that fails somewhere, runs in every world of the
/// relevant sub-product (RunDmlInEveryWorld) and replaces those
/// components with one component holding each world's new target
/// contents.
class DecomposedWorldSet : public WorldSet {
 public:
  /// The default world cap; an alias of kMaxStatementWorlds.
  static constexpr uint64_t kDefaultMaxMerge = kMaxStatementWorlds;

  /// `max_worlds` caps the sub-product (or fan-out) one statement may
  /// enumerate (worlds/world_pipeline.h). `threads` caps the shared thread
  /// pool's parallelism for per-world loops (0 = MAYBMS_THREADS /
  /// hardware); results and errors are byte-identical at every thread
  /// count (see base/thread_pool.h).
  explicit DecomposedWorldSet(uint64_t max_worlds = kMaxStatementWorlds,
                              size_t threads = 0);

  std::unique_ptr<WorldSet> Clone() const override;
  void MoveFrom(WorldSet&& other) override;
  std::string EngineName() const override { return "decomposed"; }

  uint64_t NumWorlds() const override;
  double Log10NumWorlds() const override;
  std::vector<std::string> RelationNames() const override;
  bool HasRelation(const std::string& name) const override;
  Result<std::vector<World>> MaterializeWorlds(
      size_t max_worlds, bool* truncated = nullptr) const override;
  Result<std::vector<World>> TopKWorlds(size_t k) const override;
  Result<World> SampleWorld(base::SplitMix64* rng) const override;

  Status CreateBaseTable(const std::string& name,
                         const Table& prototype) override;
  Status DropRelation(const std::string& name) override;
  Status ApplyDml(const sql::Statement& stmt, const Catalog& catalog) override;

  Result<SelectEvaluation> EvaluateSelect(const sql::SelectStatement& stmt,
                                          size_t max_worlds) const override;
  Status MaterializeSelect(const std::string& name,
                           const sql::SelectStatement& stmt) override;

  Result<storage::DurableSnapshot> ToSnapshot() const override;
  Status FromSnapshot(const storage::DurableSnapshot& snapshot) override;

  /// Introspection for tests and benchmarks.
  const Database& certain_part() const { return certain_; }
  const std::vector<ComponentHandle>& components() const {
    return components_;
  }
  size_t num_components() const { return components_.size(); }
  /// The indices of the components contributing a row to `relation`
  /// (lower-case), ascending: the engine's relation → component index,
  /// always equal to a scan with Component::ContributesTo.
  std::vector<size_t> ComponentsOf(const std::string& relation) const;

 private:
  /// The components contributing to any of `relations` (lower-case),
  /// ascending, read from the index. With `rows`, a component stays only
  /// if, for some relation it feeds, its ranges do not rule out every
  /// occurrence's rows (RowRelevance).
  std::vector<size_t> RelevantComponents(const std::set<std::string>& relations,
                                         const RowRelevance* rows) const;
  /// The components the select `stmt` reads, given the relations it
  /// references: all that feed them, narrowed by its row-local WHERE
  /// clauses where that leaves its answer unchanged. Sets `*uncertain` if
  /// any component feeds them.
  std::vector<size_t> SelectComponents(const sql::SelectStatement& stmt,
                                       const std::set<std::string>& referenced,
                                       bool* uncertain) const;
  /// Files component `i` under every relation it contributes to, with its
  /// ranges for that relation.
  void IndexComponent(size_t i);
  /// Replaces component `i` with `component` and re-files it.
  void SetComponent(size_t i, Component component);

  /// A select run through the shared pipeline (worlds/world_pipeline.h)
  /// over the sub-product of the components at `relevant`, those the
  /// statement references.
  Result<PipelineResult> RunPipeline(const sql::SelectStatement& stmt,
                                     const std::vector<size_t>& relevant,
                                     const std::string& result_name,
                                     size_t keep_worlds) const;

  /// The row-local write (engine::PreparedDml::row_local) `stmt`, planned
  /// as `plan`, applied without enumerating worlds: an INSERT appends to
  /// the certain core; an UPDATE or DELETE rewrites the core's rows of
  /// `target` and every alternative's rows of it among the components at
  /// `relevant`, in one pass on the thread pool, and gives only the
  /// components it changed a new instance. False, with nothing changed,
  /// if the statement fails anywhere: the caller then runs it in every
  /// world, which reports the first failing world's error. Governance
  /// verdicts propagate.
  Result<bool> ApplyRowLocalDml(const sql::Statement& stmt,
                                const Catalog& catalog,
                                const std::string& target,
                                const std::vector<size_t>& relevant,
                                engine::PreparedDml* plan);

  /// The components at `indices`, in that order; all of them.
  std::vector<const Component*> Parts(const std::vector<size_t>& indices) const;
  std::vector<const Component*> AllParts() const;

  /// Replaces the components at `relevant` (ascending) with one
  /// component: per world, its sub-product alternatives flattened at the
  /// world's probability, carrying its answer as `relation` if `attach`.
  Status ReplaceComponents(const std::vector<size_t>& relevant,
                           const std::vector<PipelineWorld>& worlds,
                           const std::string& relation, bool attach);

  Database certain_;
  // Shared immutable instances: Clone() copies handles, and every
  // mutation site (component replacement, repair/choice append, drop)
  // stores a new instance instead of changing a shared one.
  std::vector<ComponentHandle> components_;
  // One component feeding a relation, beside its ranges for that relation
  // (in the component), so that the per-statement relevance check reads
  // them without a lookup.
  struct Contributor {
    size_t component;
    std::span<const ColumnRange> ranges;
  };
  // Relation (lower-case) → the components that contribute to it, by
  // ascending index; relations without such components have no entry.
  // Kept current by every mutation of components_.
  std::map<std::string, std::vector<Contributor>> index_;
  uint64_t max_worlds_;
  size_t threads_;  // per-call parallelism cap; 0 = default
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_
