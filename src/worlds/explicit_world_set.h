#ifndef MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_
#define MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "worlds/world_set.h"

namespace maybms::worlds {

/// The textbook possible-worlds representation: every world is a fully
/// materialized database. Doubles as the semantic reference implementation
/// (differential tests) and the benchmark baseline against the
/// decomposition-based engine.
///
/// World creation (`repair by key`, `choice of`) multiplies the number of
/// materialized databases, so the total world count is capped; exceeding
/// the cap is an error directing users to the decomposed engine.
///
/// Per-world work (the pipeline core, streaming combination, DML
/// snapshots) runs on the shared chunked thread pool (base/thread_pool.h).
/// `threads` caps the parallelism (0 = MAYBMS_THREADS / hardware);
/// results and errors are byte-identical at every thread count.
class ExplicitWorldSet : public WorldSet {
 public:
  static constexpr size_t kDefaultMaxWorlds = 1 << 20;

  explicit ExplicitWorldSet(size_t max_worlds = kDefaultMaxWorlds,
                            size_t threads = 0);

  std::unique_ptr<WorldSet> Clone() const override;
  void MoveFrom(WorldSet&& other) override;
  std::string EngineName() const override { return "explicit"; }

  uint64_t NumWorlds() const override { return worlds_->size(); }
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

  /// Direct access for tests and the formatter.
  const std::vector<World>& worlds() const { return *worlds_; }

  /// Replaces the worlds wholesale (test setup helper). Probabilities are
  /// normalized to sum to one.
  void SetWorlds(std::vector<World> worlds);

 private:
  struct PipelineOutput {
    std::vector<World> worlds;  // result stored under the pipeline name
    std::vector<std::pair<double, Table>> per_world_results;
    std::optional<Table> combined;
    std::vector<SelectEvaluation::GroupResult> groups;
  };

  /// Runs the full I-SQL select pipeline over `input`:
  /// SQL core (+ repair/choice world creation) -> assert -> group worlds
  /// by / possible / certain / conf. The per-world result relation is
  /// stored under `result_name` in the returned worlds.
  /// `want_per_world_results` controls whether the (probability, answer)
  /// copies for quantifier-free statements are collected — EvaluateSelect
  /// needs them, MaterializeSelect does not.
  Result<PipelineOutput> RunPipeline(std::vector<World> input,
                                     const sql::SelectStatement& stmt,
                                     const std::string& result_name,
                                     bool want_per_world_results) const;

  /// Streaming evaluation of a possible/certain/conf statement without
  /// `group worlds by`: per-world answers are folded into a
  /// QuantifierCombiner (worlds/combiner.h) the moment they are produced
  /// and discarded immediately — no retained per-world result tables and
  /// no database copies (sole exception: an assert condition that
  /// literally names the internal "__result" relation forces a per-world
  /// copy to expose it). Read-only; used by EvaluateSelect.
  Result<Table> EvaluateQuantifierStreaming(
      const sql::SelectStatement& stmt) const;

  /// Streaming evaluation of a grouped quantifier statement
  /// (`select possible/certain/conf ... group worlds by (q)`): one pass
  /// over the (derived) worlds keeping a per-group-key QuantifierCombiner
  /// fed with unnormalized world probabilities — Finish(group mass)
  /// normalizes within each group — instead of materializing every
  /// per-world answer before grouping. Read-only; used by EvaluateSelect.
  /// Callers fall back to the materializing pipeline when the assert or
  /// grouping query references the internal "__result" relation (only
  /// there can they observe the per-world answer).
  Result<std::vector<SelectEvaluation::GroupResult>> EvaluateGroupedStreaming(
      const sql::SelectStatement& stmt) const;

  // Shared and immutable, so Clone() is one handle bump; every mutation
  // builds a new vector (whose worlds share unchanged tables) and swaps
  // it in.
  std::shared_ptr<const std::vector<World>> worlds_;
  size_t max_worlds_;
  size_t threads_;  // per-call parallelism cap; 0 = default
};

/// Returns a copy of `stmt` with all world-set operations removed, leaving
/// the per-world SQL core (select list, from, where, grouping, ordering,
/// union). Shared by both world-set implementations.
std::unique_ptr<sql::SelectStatement> StripWorldOps(
    const sql::SelectStatement& stmt);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_
