#ifndef MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_
#define MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "worlds/world_pipeline.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

/// The textbook possible-worlds representation: every world is a fully
/// materialized database. Doubles as the semantic reference implementation
/// (differential tests) and the benchmark baseline against the
/// decomposition-based engine.
///
/// World creation (`repair by key`, `choice of`) multiplies the number of
/// materialized databases, so it stops at the statement world cap
/// (`max_worlds`, kMaxStatementWorlds by default).
///
/// Selects and DML run through the shared world pipeline
/// (worlds/world_pipeline.h) with the stored worlds, read in place, as
/// its world source; the engine itself only commits: a `create table ...
/// as` result, or each world's new DML target instance. Per-world work
/// runs on the shared chunked thread pool (base/thread_pool.h). `threads`
/// caps the parallelism (0 = MAYBMS_THREADS / hardware); results and
/// errors are byte-identical at every thread count.
class ExplicitWorldSet : public WorldSet {
 public:
  explicit ExplicitWorldSet(uint64_t max_worlds = kMaxStatementWorlds,
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

 private:
  // Shared and immutable, so Clone() is one handle bump; every mutation
  // builds a new vector (whose worlds share unchanged tables) and swaps
  // it in.
  std::shared_ptr<const std::vector<World>> worlds_;
  uint64_t max_worlds_;
  size_t threads_;  // per-call parallelism cap; 0 = default
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_
