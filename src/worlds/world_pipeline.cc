#include "worlds/world_pipeline.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "base/query_context.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "engine/dml.h"
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "engine/prepared.h"
#include "worlds/combiner.h"
#include "worlds/component.h"
#include "worlds/partition.h"

namespace maybms::worlds {

namespace {

/// The one world-cap check (see kMaxStatementWorlds): may a statement
/// that has admitted `admitted` (<= cap) worlds enumerate `more`?
Status CheckWorldCap(uint64_t admitted, uint64_t more, uint64_t cap) {
  if (more <= cap - admitted) return Status::OK();
  return Status::Unsupported("statement world cap of " + std::to_string(cap) +
                             " worlds exceeded");
}

/// Admits a source before any of its worlds runs: the world cap, then the
/// world-budget charge for worlds the statement decodes.
Status AdmitSource(const WorldSource& source, uint64_t cap) {
  MAYBMS_RETURN_NOT_OK(CheckWorldCap(0, source.size(), cap));
  if (!source.decoded()) return Status::OK();
  return base::GovernChargeWorlds(source.size());
}

/// A surviving world as the collector keeps it.
struct Survivor {
  PipelineWorld world;
  std::vector<Tuple> group_key;  // canonical; only for materialized groups
};

/// The state of every sink: one per chunk while a batch of worlds runs,
/// merged in chunk order into the run's total afterwards.
struct SinkState {
  std::optional<QuantifierCombiner> combiner;
  std::optional<GroupedQuantifierCombiner> grouped;
  std::vector<Survivor> kept;  // at most keep_worlds, in world order
  size_t survivors = 0;
  double mass = 0;  // surviving (unnormalized) probability mass
};

class Pipeline {
 public:
  Pipeline(const WorldSource& source, const sql::SelectStatement& stmt,
           const PipelineOptions& options, const WorldSummaries* summaries);

  Result<PipelineResult> Run();

 private:
  /// Runs the SQL core in every source world, or takes every world's
  /// outcome from the summaries.
  Status RunCore();
  /// Runs the repair/choice projection in every combination of every
  /// source world's partition blocks.
  Status RunFanOut();
  /// One world's tail: assert filter → group key → sink, with the answer
  /// `answer` and the verdict and key evaluated in `db`.
  Status Tail(size_t source_index, double probability, const Database* db,
              Table answer, size_t slot, size_t chunk);
  /// The tail of a world assembled from the summaries: the same steps on
  /// its row ids.
  Status SummaryTail(size_t source_index, const WorldSummary& summary,
                     size_t chunk);
  /// The sink state of `chunk`, counting one more surviving world.
  Result<SinkState*> Survive(double probability, size_t chunk);
  void BeginBatch(size_t n);
  Status EndBatch();
  Result<PipelineResult> Finish();

  const WorldSource& source_;
  const sql::SelectStatement& stmt_;
  const PipelineOptions& options_;
  const WorldSummaries* summaries_;  // null: SQL runs in every world
  std::unique_ptr<sql::SelectStatement> core_;
  base::ThreadPool& pool_;
  const size_t slots_;
  bool expose_result_ = false;
  bool keep_group_keys_ = false;
  // Per-slot scratch (base/thread_pool.h rule 3): the assert's subquery
  // plans, and the grouping query planned at the slot's first survivor.
  std::vector<engine::SubqueryPlanCache> assert_plans_;
  std::vector<std::optional<engine::PreparedSelect>> group_plans_;
  std::vector<SinkState> chunks_;
  SinkState total_;
};

Pipeline::Pipeline(const WorldSource& source, const sql::SelectStatement& stmt,
                   const PipelineOptions& options,
                   const WorldSummaries* summaries)
    : source_(source),
      stmt_(stmt),
      options_(options),
      summaries_(summaries),
      core_(StripWorldOps(stmt)),
      pool_(base::ThreadPool::Shared()),
      slots_(pool_.Slots(options.threads)),
      assert_plans_(slots_),
      group_plans_(slots_) {
  std::set<std::string> refs;
  if (stmt.assert_condition) {
    CollectReferencedRelations(*stmt.assert_condition, &refs);
  }
  if (stmt.group_worlds_by) {
    CollectReferencedRelations(*stmt.group_worlds_by, &refs);
  }
  expose_result_ = refs.count(AsciiToLower(options.result_name)) > 0;
  keep_group_keys_ = stmt.group_worlds_by && options.keep_worlds > 0;
  // A world's summary knows nothing of its answer as a relation.
  if (expose_result_) summaries_ = nullptr;
}

Result<PipelineResult> Pipeline::Run() {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt_));
  MAYBMS_RETURN_NOT_OK(AdmitSource(source_, options_.max_worlds));
  if (source_.size() > 0) {
    MAYBMS_RETURN_NOT_OK(stmt_.repair.has_value() || stmt_.choice.has_value()
                             ? RunFanOut()
                             : RunCore());
  }
  return Finish();
}

Status Pipeline::RunCore() {
  // Planned once per slot against the shared schema catalog; slot 0
  // eagerly, so preparation errors surface before any world runs.
  // Summaries need no plan: the engine prepared the statement to make
  // them.
  std::vector<std::optional<engine::PreparedSelect>> plans(slots_);
  if (summaries_ == nullptr) {
    MAYBMS_ASSIGN_OR_RETURN(plans[0], engine::PreparedSelect::Prepare(
                                          *core_, source_.schema_db()));
  }
  const size_t n = source_.size();
  // One scratch world per slot, for this loop only (storage/catalog.h:
  // a worker mutates only what it created inside the region).
  std::vector<WorldScratch> scratch(slots_);
  std::vector<WorldSummary> summaries(summaries_ != nullptr ? slots_ : 0);
  BeginBatch(n);
  MAYBMS_RETURN_NOT_OK(pool_.ParallelFor(
      n, options_.threads,
      [&](size_t i, size_t slot, size_t chunk) -> Status {
        if (summaries_ != nullptr) {
          MAYBMS_RETURN_NOT_OK(
              summaries_->Assemble(i, &scratch[slot], &summaries[slot]));
          return SummaryTail(i, summaries[slot], chunk);
        }
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(plans[slot],
                                  engine::PreparedSelect::Prepare(
                                      *core_, source_.schema_db()));
        }
        const World& world = source_.Get(i, &scratch[slot]);
        MAYBMS_ASSIGN_OR_RETURN(Table answer, plans[slot]->Execute(world.db));
        return Tail(i, world.probability, &world.db, std::move(answer), slot,
                    chunk);
      }));
  return EndBatch();
}

Status Pipeline::RunFanOut() {
  const Database& schema_db = source_.schema_db();
  MAYBMS_ASSIGN_OR_RETURN(engine::PreparedFromWhere source_plan,
                          engine::PreparedFromWhere::Prepare(stmt_, schema_db));
  // Projections build subquery-plan caches during Execute, so each slot
  // owns one; slot 0's is prepared eagerly.
  std::vector<std::optional<engine::PreparedProjection>> projections(slots_);
  MAYBMS_ASSIGN_OR_RETURN(projections[0],
                          engine::PreparedProjection::Prepare(
                              *core_, schema_db, source_plan.output_schema()));
  uint64_t produced = 0;
  WorldScratch scratch;
  // Source worlds advance strictly in sequence (world i's combinations
  // before world i+1's partition), so errors interleave identically at
  // every thread count.
  for (size_t i = 0; i < source_.size(); ++i) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    const World& world = source_.Get(i, &scratch);
    MAYBMS_ASSIGN_OR_RETURN(Table rows, source_plan.Execute(world.db));
    MAYBMS_ASSIGN_OR_RETURN(std::vector<PartitionBlock> blocks,
                            Partition(rows, stmt_));
    std::vector<size_t> radices;
    for (const PartitionBlock& block : blocks) {
      radices.push_back(block.choices.size());
    }
    // The cap covers the derived worlds of every source world so far; it
    // is checked before this world's combinations run.
    const uint64_t combos = RadixProduct(radices);
    MAYBMS_RETURN_NOT_OK(CheckWorldCap(produced, combos, options_.max_worlds));
    produced += combos;
    // THE world-budget charge site for derived worlds: they come into
    // existence here, whichever sink consumes them.
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(combos));

    BeginBatch(static_cast<size_t>(combos));
    MAYBMS_RETURN_NOT_OK(pool_.ParallelFor(
        static_cast<size_t>(combos), options_.threads,
        [&](size_t c, size_t slot, size_t chunk) -> Status {
          if (!projections[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(
                projections[slot],
                engine::PreparedProjection::Prepare(
                    *core_, schema_db, source_plan.output_schema()));
          }
          // An empty block list (repair of an empty relation) yields
          // exactly the single empty choice c == 0.
          const std::vector<size_t> digits = DecodeProductIndex(c, radices);
          double probability = world.probability;
          std::vector<Tuple> chosen;
          for (size_t b = 0; b < blocks.size(); ++b) {
            const WeightedChoice& choice = blocks[b].choices[digits[b]];
            probability *= choice.probability;
            for (size_t r : choice.row_indices) chosen.push_back(rows.row(r));
          }
          MAYBMS_ASSIGN_OR_RETURN(Table answer,
                                  projections[slot]->Execute(world.db, chosen));
          return Tail(i, probability, &world.db, std::move(answer), slot,
                      chunk);
        }));
    MAYBMS_RETURN_NOT_OK(EndBatch());
  }
  return Status::OK();
}

Status Pipeline::Tail(size_t source_index, double probability,
                      const Database* db, Table answer, size_t slot,
                      size_t chunk) {
  // Memory-budget charge for the per-world answer: once per world,
  // whichever sink consumes it.
  MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
      answer.num_rows(), answer.schema().num_columns())));
  Database::TableHandle shared;  // set once the answer must outlive Tail
  Database exposed;
  const Database* view = db;
  if (expose_result_) {
    shared = std::make_shared<const Table>(std::move(answer));
    exposed = *db;
    exposed.PutRelation(options_.result_name, shared);
    view = &exposed;
  }
  const Table& result = shared != nullptr ? *shared : answer;
  if (stmt_.assert_condition) {
    engine::SubqueryCache cache(&assert_plans_[slot]);
    engine::EvalContext ctx{view, nullptr, nullptr, nullptr, nullptr, &cache};
    MAYBMS_ASSIGN_OR_RETURN(Trivalent keep,
                            engine::EvalPredicate(*stmt_.assert_condition, ctx));
    if (keep != Trivalent::kTrue) return Status::OK();
  }

  MAYBMS_ASSIGN_OR_RETURN(SinkState * survived, Survive(probability, chunk));
  SinkState& sink = *survived;
  const bool keep = sink.kept.size() < options_.keep_worlds;
  std::vector<Tuple> group_key;
  if (stmt_.group_worlds_by) {
    if (!group_plans_[slot].has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(
          group_plans_[slot],
          engine::PreparedSelect::Prepare(*stmt_.group_worlds_by, *view));
    }
    MAYBMS_ASSIGN_OR_RETURN(Table key, group_plans_[slot]->Execute(*view));
    MAYBMS_RETURN_NOT_OK(sink.grouped->Feed(probability, result, key));
    if (keep && keep_group_keys_) group_key = CanonicalizeGroupKey(key).rows();
  } else if (stmt_.quantifier != sql::WorldQuantifier::kNone) {
    sink.combiner->Feed(probability, result);
  } else if (keep && shared == nullptr) {
    shared = std::make_shared<const Table>(std::move(answer));
  }
  if (keep) {
    // A quantifier's kept worlds get the combined answer at Finish.
    if (stmt_.quantifier != sql::WorldQuantifier::kNone) shared = nullptr;
    sink.kept.push_back(
        {{source_index, probability, std::move(shared)}, std::move(group_key)});
  }
  return Status::OK();
}

Status Pipeline::SummaryTail(size_t source_index, const WorldSummary& summary,
                             size_t chunk) {
  const RowDictionary& answers = summaries_->answers();
  MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
      summary.answer.size(), answers.schema.num_columns())));
  if (!summary.kept) return Status::OK();
  MAYBMS_ASSIGN_OR_RETURN(SinkState * survived,
                          Survive(summary.probability, chunk));
  SinkState& sink = *survived;
  const bool keep = sink.kept.size() < options_.keep_worlds;
  // Rows are built only for the worlds a materialization keeps.
  const auto rows = [](const RowDictionary& dictionary,
                       const std::vector<uint32_t>& ids) {
    std::vector<Tuple> out;
    out.reserve(ids.size());
    for (uint32_t id : ids) out.push_back(dictionary.rows[id]);
    return out;
  };
  Survivor survivor{{source_index, summary.probability, nullptr}, {}};
  if (stmt_.group_worlds_by) {
    MAYBMS_RETURN_NOT_OK(sink.grouped->FeedIds(summary.probability,
                                               summary.answer, summary.key));
    if (keep && keep_group_keys_) {  // canonical: sorted, distinct
      std::vector<uint32_t> key = summary.key;
      std::sort(key.begin(), key.end());
      key.erase(std::unique(key.begin(), key.end()), key.end());
      survivor.group_key = rows(*summaries_->keys(), key);
    }
  } else if (stmt_.quantifier != sql::WorldQuantifier::kNone) {
    sink.combiner->FeedIds(summary.probability, summary.answer);
  } else if (keep) {
    survivor.world.answer = std::make_shared<const Table>(
        answers.schema, rows(answers, summary.answer));
  }
  if (keep) sink.kept.push_back(std::move(survivor));
  return Status::OK();
}

Result<SinkState*> Pipeline::Survive(double probability, size_t chunk) {
  SinkState& sink = chunks_[chunk];
  ++sink.survivors;
  sink.mass += probability;
  const RowDictionary* answers =
      summaries_ != nullptr ? &summaries_->answers() : nullptr;
  if (stmt_.group_worlds_by) {
    if (!sink.grouped.has_value()) {
      sink.grouped.emplace(stmt_.quantifier, answers,
                           summaries_ != nullptr ? summaries_->keys()
                                                 : nullptr);
    }
  } else if (stmt_.quantifier != sql::WorldQuantifier::kNone &&
             !sink.combiner.has_value()) {
    MAYBMS_ASSIGN_OR_RETURN(
        sink.combiner, QuantifierCombiner::Create(stmt_.quantifier, answers));
  }
  return &sink;
}

void Pipeline::BeginBatch(size_t n) {
  chunks_.clear();
  chunks_.resize(base::ThreadPool::NumChunks(n));
}

Status Pipeline::EndBatch() {
  for (SinkState& chunk : chunks_) {
    if (chunk.combiner.has_value()) {
      if (total_.combiner.has_value()) {
        total_.combiner->Merge(std::move(*chunk.combiner));
      } else {
        total_.combiner = std::move(chunk.combiner);
      }
    }
    if (chunk.grouped.has_value()) {
      if (total_.grouped.has_value()) {
        MAYBMS_RETURN_NOT_OK(total_.grouped->Merge(std::move(*chunk.grouped)));
      } else {
        total_.grouped = std::move(chunk.grouped);
      }
    }
    for (Survivor& survivor : chunk.kept) {
      if (total_.kept.size() == options_.keep_worlds) break;
      total_.kept.push_back(std::move(survivor));
    }
    total_.survivors += chunk.survivors;
    total_.mass += chunk.mass;
  }
  chunks_.clear();
  return Status::OK();
}

Result<PipelineResult> Pipeline::Finish() {
  if (stmt_.assert_condition) {
    if (total_.survivors == 0) {
      return Status::EmptyWorldSet("assert eliminated every world");
    }
    // World probabilities are positive (partition weights must be), so
    // survivors imply mass > 0. Guard anyway: dividing by zero would
    // poison every confidence with NaN.
    if (!(total_.mass > 0)) {
      return Status::EmptyWorldSet("assert leaves no probability mass");
    }
  }
  const double normalizer = stmt_.assert_condition ? total_.mass : 1.0;

  PipelineResult out;
  out.truncated = stmt_.quantifier == sql::WorldQuantifier::kNone &&
                  total_.survivors > total_.kept.size();
  // The answer every kept world stores when a quantifier collapsed it:
  // one shared instance (per group), not one copy per world.
  Database::TableHandle combined;
  std::map<std::vector<Tuple>, Database::TableHandle> group_answers;
  if (stmt_.group_worlds_by) {
    if (total_.grouped.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(out.groups, total_.grouped->Finish());
    }
    if (keep_group_keys_) {
      for (const SelectEvaluation::GroupResult& group : out.groups) {
        group_answers.emplace(group.key.rows(),
                              std::make_shared<const Table>(group.table));
      }
    }
  } else if (stmt_.quantifier != sql::WorldQuantifier::kNone) {
    if (!total_.combiner.has_value()) {  // no world at all
      MAYBMS_ASSIGN_OR_RETURN(total_.combiner,
                              QuantifierCombiner::Create(stmt_.quantifier));
    }
    MAYBMS_ASSIGN_OR_RETURN(out.combined, total_.combiner->Finish(normalizer));
    if (!total_.kept.empty()) {
      combined = std::make_shared<const Table>(*out.combined);
    }
  }
  out.worlds.reserve(total_.kept.size());
  for (Survivor& survivor : total_.kept) {
    PipelineWorld& world = survivor.world;
    world.probability /= normalizer;
    if (stmt_.group_worlds_by) {
      world.answer = group_answers.at(survivor.group_key);
    } else if (combined != nullptr) {
      world.answer = combined;
    }
    out.worlds.push_back(std::move(world));
  }
  return out;
}

}  // namespace

Result<PipelineResult> RunWorldPipeline(const WorldSource& source,
                                        const sql::SelectStatement& stmt,
                                        const PipelineOptions& options,
                                        const WorldSummaries* summaries) {
  return Pipeline(source, stmt, options, summaries).Run();
}

Result<std::vector<PipelineWorld>> RunDmlInEveryWorld(
    const WorldSource& source, const sql::Statement& stmt,
    const Catalog& catalog, size_t threads, uint64_t max_worlds) {
  std::set<std::string> referenced;
  MAYBMS_ASSIGN_OR_RETURN(const std::string target,
                          DmlTarget(stmt, &referenced));
  MAYBMS_RETURN_NOT_OK(AdmitSource(source, max_worlds));
  std::vector<PipelineWorld> worlds(source.size());
  if (worlds.empty()) return worlds;
  base::ThreadPool& pool = base::ThreadPool::Shared();
  // A PreparedDml caches per-execution state, so each slot owns one.
  std::vector<std::optional<engine::PreparedDml>> plans(pool.Slots(threads));
  MAYBMS_ASSIGN_OR_RETURN(
      plans[0],
      engine::PreparedDml::Prepare(stmt, source.schema_db(), &catalog));
  std::vector<WorldScratch> scratch(plans.size());  // one per slot, this loop only
  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      worlds.size(), threads,
      [&](size_t i, size_t slot, size_t /*chunk*/) -> Status {
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot],
              engine::PreparedDml::Prepare(stmt, source.schema_db(), &catalog));
        }
        // The statement sees the relations it references (those the
        // world has), shared with the world: copying a wide world's whole
        // catalog per world would dominate the pass. Execute swaps in a
        // new target instance only if it changed the relation, and only
        // after the whole statement succeeded in this world.
        const World& world = source.Get(i, &scratch[slot]);
        Database db;
        for (const std::string& relation : referenced) {
          Result<Database::TableHandle> handle =
              world.db.GetRelationHandle(relation);
          if (handle.ok()) db.PutRelation(relation, std::move(*handle));
        }
        MAYBMS_RETURN_NOT_OK(plans[slot]->Execute(&db));
        worlds[i].source_index = i;
        worlds[i].probability = world.probability;
        MAYBMS_ASSIGN_OR_RETURN(worlds[i].answer,
                                db.GetRelationHandle(target));
        return Status::OK();
      }));
  return worlds;
}

Result<SelectEvaluation> ToSelectEvaluation(PipelineResult result) {
  SelectEvaluation eval;
  eval.combined = std::move(result.combined);
  eval.groups = std::move(result.groups);
  eval.truncated = result.truncated;
  eval.per_world.reserve(result.worlds.size());
  for (const PipelineWorld& world : result.worlds) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    eval.per_world.emplace_back(world.probability, *world.answer);
  }
  return eval;
}

}  // namespace maybms::worlds
