#ifndef MAYBMS_WORLDS_WORLD_PIPELINE_H_
#define MAYBMS_WORLDS_WORLD_PIPELINE_H_

// The I-SQL select pipeline, written once for both engines:
//
//   world source → [repair/choice fan-out] → per-world tail → sink
//
//  * A WorldSource is all an engine supplies: its number of worlds and,
//    for an index, that world's probability and database. The explicit
//    engine hands over its stored worlds; the decomposed engine decodes
//    worlds of the relevant component sub-product on demand.
//  * Fan-out (`repair by key` / `choice of`) turns each source world into
//    one derived world per combination of its partition blocks.
//  * The tail runs in every (derived) world: SQL core → assert filter →
//    group key → sink. The world's answer is visible as a relation named
//    `result_name` only when the assert or GROUP WORLDS BY query names it.
//  * Sinks: a QuantifierCombiner (possible/certain/conf), a
//    GroupedQuantifierCombiner (group worlds by), and a collector of the
//    surviving worlds (plain selects and materializations).
//
// Writes take the same source: RunDmlInEveryWorld runs a DML statement in
// every source world and hands back each world's new target instance.
// Reads and writes share one world cap (kMaxStatementWorlds) and charge
// decoded source worlds to the world budget before any world runs.
//
// Normalization has one rule: sinks are fed unnormalized world
// probabilities and divide by the surviving mass at the end — the mass
// left after `assert` (1 without an assert: sources are normalized). A
// materialization renormalizes its stored survivors by the same total.
//
// Determinism: worlds run on the shared pool in fixed chunks; every sink
// keeps per-chunk state merged in chunk order, so answers, probabilities
// and errors are byte-identical at every thread count
// (base/thread_pool.h). Two engines that hand over the same worlds in the
// same order get bit-identical results.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/result.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "worlds/combiner.h"
#include "worlds/world.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

/// The most worlds one statement may enumerate on either engine, as a
/// source or as a repair/choice fan-out total. Above it the statement
/// fails with kUnsupported "statement world cap of N worlds exceeded".
inline constexpr uint64_t kMaxStatementWorlds = uint64_t{1} << 20;

struct Alternative;

/// What one thread keeps from one world of a source to the next: the
/// world built last, and the alternatives decoded for it.
struct WorldScratch {
  World world;
  std::vector<const Alternative*> chosen;
};

/// The worlds a pipeline runs over, in a fixed order.
class WorldSource {
 public:
  virtual ~WorldSource() = default;

  virtual size_t size() const = 0;

  /// A database carrying the shared schema catalog; plans are prepared
  /// against it once and executed in every world.
  virtual const Database& schema_db() const = 0;

  /// World `i` (< size()): a stored world in place, or one built into
  /// `scratch`. Thread-safe; the same `i` always yields the same world.
  /// A caller keeps one scratch per thread, default-constructed before
  /// its first Get and passed back for the next world of this source;
  /// the source may reuse what the previous world left in it. The world
  /// returned stays valid until the next Get with the same scratch.
  virtual const World& Get(size_t i, WorldScratch* scratch) const = 0;

  /// True for decoded worlds, which the world budget counts; stored
  /// worlds were counted when they were derived.
  virtual bool decoded() const = 0;
};

/// One world's outcome, computed without running SQL in the world: its
/// probability, the statement's answer and the GROUP WORLDS BY key as row
/// ids of the summaries' dictionaries, and the assert's verdict.
struct WorldSummary {
  double probability = 0;
  /// The answer's rows, in its row order, duplicates included.
  std::vector<uint32_t> answer;
  bool kept = true;  // false: the assert drops the world
  /// The grouping query's answer rows, under GROUP WORLDS BY.
  std::vector<uint32_t> key;
};

/// The outcomes of a source's worlds, assembled from summaries of the
/// source's parts (worlds/decomposed_world_set.cc: per-alternative
/// summaries of row-local scans). Given one, the pipeline calls it in
/// place of the SQL core, the assert and the grouping query, and feeds
/// the row ids to its sinks; the worlds, their order, the chunks, the
/// world cap and budget, the per-world memory charge and the sinks stay
/// the pipeline's own, so the result is bit-identical to running the
/// SQL. Every outcome must be the one the SQL gives in that world; an
/// engine that cannot promise that (an expression that fails in some
/// world) passes none.
class WorldSummaries {
 public:
  virtual ~WorldSummaries() = default;

  /// The rows answer ids number, under the statement's answer schema.
  virtual const RowDictionary& answers() const = 0;
  /// The rows key ids number, under the grouping query's answer schema;
  /// null without GROUP WORLDS BY.
  virtual const RowDictionary* keys() const = 0;

  /// World `i` of the source (< size()), into `out`, whose vectors are
  /// overwritten (a caller may reuse one summary per thread). Thread-safe;
  /// the scratch is used as WorldSource::Get uses it.
  virtual Status Assemble(size_t i, WorldScratch* scratch,
                          WorldSummary* out) const = 0;
};

struct PipelineOptions {
  /// Name under which the assert / GROUP WORLDS BY query may see the
  /// statement's own per-world answer: "__result" for a select, the
  /// target for `create table ... as`.
  std::string result_name = "__result";
  /// How many surviving worlds to return (in world order); the rest are
  /// evaluated and counted but not kept.
  size_t keep_worlds = 0;
  size_t threads = 0;  // 0 = MAYBMS_THREADS / hardware
  uint64_t max_worlds = kMaxStatementWorlds;  // the world cap
};

/// One surviving world as a materialization or write commits it.
struct PipelineWorld {
  size_t source_index = 0;  // the source world it came from
  double probability = 0;   // renormalized
  /// The world's answer; for a quantifier the combined answer, and under
  /// GROUP WORLDS BY its group's combined answer (one shared instance).
  Database::TableHandle answer;
};

struct PipelineResult {
  std::vector<PipelineWorld> worlds;  // the first keep_worlds survivors
  bool truncated = false;             // more survivors than were kept
  std::optional<Table> combined;      // possible/certain/conf
  std::vector<SelectEvaluation::GroupResult> groups;  // group worlds by
};

/// Runs `stmt` over `source`. Read-only: callers commit the result.
/// With `summaries`, a statement without repair/choice whose assert and
/// grouping query do not name its result takes each world's outcome from
/// them instead of running SQL in it.
Result<PipelineResult> RunWorldPipeline(
    const WorldSource& source, const sql::SelectStatement& stmt,
    const PipelineOptions& options,
    const WorldSummaries* summaries = nullptr);

/// Runs the INSERT/UPDATE/DELETE `stmt` in every world of `source` and
/// returns every world, in source order, with its new instance of the
/// target relation as its answer (the world's own instance if the
/// statement left it unchanged). The statement is planned once per slot,
/// slot 0 before any world runs. If worlds fail, the error is the first
/// failing world's in source order, at every thread count. Read-only:
/// the engine commits.
Result<std::vector<PipelineWorld>> RunDmlInEveryWorld(
    const WorldSource& source, const sql::Statement& stmt,
    const Catalog& catalog, size_t threads, uint64_t max_worlds);

/// The EvaluateSelect view of a pipeline result.
Result<SelectEvaluation> ToSelectEvaluation(PipelineResult result);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_WORLD_PIPELINE_H_
