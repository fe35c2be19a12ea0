#include "worlds/decomposed_world_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
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
#include "worlds/explicit_world_set.h"
#include "worlds/partition.h"

namespace maybms::worlds {

namespace {

/// Key under which pipeline results are stored in new components before a
/// materialization assigns the real relation name.
const char kResultKey[] = "__result";

bool ContainsSubquery(const sql::Expr& expr) {
  switch (expr.kind) {
    case sql::ExprKind::kExists:
    case sql::ExprKind::kInSubquery:
    case sql::ExprKind::kScalarSubquery:
      return true;
    case sql::ExprKind::kLiteral:
    case sql::ExprKind::kColumnRef:
      return false;
    case sql::ExprKind::kUnary:
      return ContainsSubquery(
          *static_cast<const sql::UnaryExpr&>(expr).operand);
    case sql::ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      return ContainsSubquery(*b.left) || ContainsSubquery(*b.right);
    }
    case sql::ExprKind::kFunctionCall: {
      const auto& f = static_cast<const sql::FunctionCallExpr&>(expr);
      for (const auto& a : f.args) {
        if (ContainsSubquery(*a)) return true;
      }
      return false;
    }
    case sql::ExprKind::kIsNull:
      return ContainsSubquery(
          *static_cast<const sql::IsNullExpr&>(expr).operand);
    case sql::ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      if (ContainsSubquery(*in.operand)) return true;
      for (const auto& i : in.items) {
        if (ContainsSubquery(*i)) return true;
      }
      return false;
    }
    case sql::ExprKind::kBetween: {
      const auto& b = static_cast<const sql::BetweenExpr&>(expr);
      return ContainsSubquery(*b.operand) || ContainsSubquery(*b.low) ||
             ContainsSubquery(*b.high);
    }
    case sql::ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      for (const auto& w : c.whens) {
        if (ContainsSubquery(*w.condition) || ContainsSubquery(*w.result)) {
          return true;
        }
      }
      return c.else_result && ContainsSubquery(*c.else_result);
    }
    case sql::ExprKind::kCast:
      return ContainsSubquery(
          *static_cast<const sql::CastExpr&>(expr).operand);
  }
  return false;
}

/// One-shot combination of already-materialized per-world answers through
/// the streaming combiner (weights must be normalized). Used where the
/// pipeline genuinely needs every answer at hand anyway (assert tails,
/// group-worlds-by members); the hot quantifier paths feed the combiner
/// incrementally instead.
Result<Table> CombineByQuantifier(
    sql::WorldQuantifier quantifier,
    const std::vector<std::pair<double, const Table*>>& entries) {
  MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                          QuantifierCombiner::Create(quantifier));
  for (const auto& [prob, table] : entries) combiner.Feed(prob, *table);
  return combiner.Finish();
}

/// Filters `rows` (over the projection's qualified source schema) by the
/// statement's WHERE clause and projects them through the prepared select
/// list. The fast path guarantees there are no subqueries, so `db` is only
/// a formality for the evaluation context; `where_plans` shares what
/// little subquery analysis there is across the per-alternative calls.
Result<std::vector<Tuple>> FilterProjectRows(
    const sql::SelectStatement& core, const Database& db, const Schema& schema,
    const std::vector<Tuple>& rows, engine::PreparedProjection& projection,
    engine::SubqueryPlanCache* where_plans) {
  std::vector<Tuple> kept;
  kept.reserve(rows.size());
  engine::SubqueryCache subquery_cache(where_plans);
  for (const Tuple& row : rows) {
    if (core.where) {
      engine::EvalContext ctx{&db,     &schema, &row,
                              nullptr, nullptr, &subquery_cache};
      MAYBMS_ASSIGN_OR_RETURN(Trivalent keep,
                              engine::EvalPredicate(*core.where, ctx));
      if (keep != Trivalent::kTrue) continue;
    }
    kept.push_back(row);
  }
  MAYBMS_ASSIGN_OR_RETURN(Table projected, projection.Execute(db, kept));
  return std::move(*projected.mutable_rows());
}

}  // namespace

DecomposedWorldSet::DecomposedWorldSet(size_t max_merge, size_t threads)
    : max_merge_(max_merge), threads_(threads) {}

std::unique_ptr<WorldSet> DecomposedWorldSet::Clone() const {
  return std::make_unique<DecomposedWorldSet>(*this);
}

void DecomposedWorldSet::MoveFrom(WorldSet&& other) {
  *this = std::move(static_cast<DecomposedWorldSet&>(other));
}

uint64_t DecomposedWorldSet::NumWorlds() const {
  uint64_t total = 1;
  for (const ComponentHandle& c : components_) {
    uint64_t size = static_cast<uint64_t>(c->size());
    if (size != 0 &&
        total > std::numeric_limits<uint64_t>::max() / size) {
      return std::numeric_limits<uint64_t>::max();  // saturate
    }
    total *= size;
  }
  return total;
}

double DecomposedWorldSet::Log10NumWorlds() const {
  double log_total = 0;
  for (const ComponentHandle& c : components_) {
    log_total += std::log10(static_cast<double>(c->size()));
  }
  return log_total;
}

std::vector<std::string> DecomposedWorldSet::RelationNames() const {
  return certain_.RelationNames();
}

bool DecomposedWorldSet::HasRelation(const std::string& name) const {
  return certain_.HasRelation(name);
}

Database DecomposedWorldSet::BuildLocalDatabase(
    const std::vector<const Alternative*>& chosen) const {
  // Copying the certain core is O(#relations) handle bumps; only the
  // relations this choice actually contributes to are cloned (by the
  // copy-on-write MutableRelation) — every untouched relation stays
  // shared with the core and every other local world.
  Database db = certain_;
  for (const Alternative* alt : chosen) {
    for (const auto& [rel, tuples] : alt->tuples) {
      auto table = db.MutableRelation(rel);
      if (!table.ok()) continue;  // relation dropped; stale contribution
      for (const Tuple& t : tuples) (*table)->AppendUnchecked(t);
    }
  }
  return db;
}

Result<std::vector<World>> DecomposedWorldSet::MaterializeWorlds(
    size_t max_worlds, bool* truncated) const {
  std::vector<World> worlds;
  if (truncated != nullptr) *truncated = false;

  std::vector<size_t> pick(components_.size(), 0);
  while (true) {
    if (worlds.size() >= max_worlds) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    // Each odometer step materializes one full world (a database copy):
    // charge it against the world budget, which also polls.
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    std::vector<const Alternative*> chosen;
    double prob = 1.0;
    chosen.reserve(components_.size());
    for (size_t i = 0; i < components_.size(); ++i) {
      const Alternative& alt = components_[i]->alternatives[pick[i]];
      chosen.push_back(&alt);
      prob *= alt.probability;
    }
    worlds.emplace_back(BuildLocalDatabase(chosen), prob);

    size_t i = 0;
    for (; i < components_.size(); ++i) {
      if (++pick[i] < components_[i]->size()) break;
      pick[i] = 0;
    }
    if (i == components_.size()) break;
  }
  return worlds;
}

Result<std::vector<World>> DecomposedWorldSet::TopKWorlds(size_t k) const {
  // Best-first search over the product of per-component alternatives
  // sorted by decreasing probability: the most probable world picks rank
  // 0 everywhere; successors bump one rank. Never enumerates more than
  // O(k * n) states, independent of the total world count.
  const size_t n = components_.size();
  std::vector<std::vector<size_t>> sorted(n);  // rank -> alternative index
  for (size_t c = 0; c < n; ++c) {
    sorted[c].resize(components_[c]->size());
    for (size_t j = 0; j < sorted[c].size(); ++j) sorted[c][j] = j;
    std::stable_sort(sorted[c].begin(), sorted[c].end(),
                     [&](size_t a, size_t b) {
                       return components_[c]->alternatives[a].probability >
                              components_[c]->alternatives[b].probability;
                     });
  }

  auto probability_of = [&](const std::vector<size_t>& ranks) {
    double p = 1.0;
    for (size_t c = 0; c < n; ++c) {
      p *= components_[c]->alternatives[sorted[c][ranks[c]]].probability;
    }
    return p;
  };

  struct State {
    double probability;
    std::vector<size_t> ranks;
    bool operator<(const State& other) const {
      return probability < other.probability;  // max-heap
    }
  };
  std::priority_queue<State> frontier;
  std::set<std::vector<size_t>> seen;
  std::vector<size_t> initial(n, 0);
  frontier.push(State{probability_of(initial), initial});
  seen.insert(std::move(initial));

  std::vector<World> top;
  while (!frontier.empty() && top.size() < k) {
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    State state = frontier.top();
    frontier.pop();
    std::vector<const Alternative*> chosen;
    chosen.reserve(n);
    for (size_t c = 0; c < n; ++c) {
      chosen.push_back(
          &components_[c]->alternatives[sorted[c][state.ranks[c]]]);
    }
    top.emplace_back(BuildLocalDatabase(chosen), state.probability);

    for (size_t c = 0; c < n; ++c) {
      if (state.ranks[c] + 1 >= sorted[c].size()) continue;
      std::vector<size_t> next = state.ranks;
      ++next[c];
      if (seen.insert(next).second) {
        frontier.push(State{probability_of(next), std::move(next)});
      }
    }
  }
  return top;
}

Result<World> DecomposedWorldSet::SampleWorld(base::SplitMix64* rng) const {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<const Alternative*> chosen;
  chosen.reserve(components_.size());
  double probability = 1.0;
  for (const ComponentHandle& handle : components_) {
    const Component& component = *handle;
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    if (component.alternatives.empty()) {
      return Status::EmptyWorldSet("component with no alternatives");
    }
    double u = uniform(*rng);
    double cumulative = 0;
    const Alternative* pick = &component.alternatives.back();
    for (const Alternative& alt : component.alternatives) {
      cumulative += alt.probability;
      if (u <= cumulative) {
        pick = &alt;
        break;
      }
    }
    probability *= pick->probability;
    chosen.push_back(pick);
  }
  return World(BuildLocalDatabase(chosen), probability);
}

Status DecomposedWorldSet::CreateBaseTable(const std::string& name,
                                           const Table& prototype) {
  if (certain_.HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  certain_.PutRelation(name, prototype);
  return Status::OK();
}

Status DecomposedWorldSet::DropRelation(const std::string& name) {
  // Poll BEFORE any mutation: erasing contributions from a prefix of the
  // components and then aborting would tear the set.
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  MAYBMS_RETURN_NOT_OK(certain_.DropRelation(name));
  std::string lower = AsciiToLower(name);
  for (ComponentHandle& c : components_) {
    bool keyed = false;
    for (const Alternative& alt : c->alternatives) {
      keyed = keyed || alt.tuples.count(lower) > 0;
    }
    if (!keyed) continue;
    // Copy-on-write: other clones and the store may share the instance.
    Component pruned = *c;
    for (Alternative& alt : pruned.alternatives) alt.tuples.erase(lower);
    c = ShareComponent(std::move(pruned));
  }
  return Status::OK();
}

std::vector<size_t> DecomposedWorldSet::RelevantComponents(
    const std::set<std::string>& relations) const {
  std::vector<size_t> indices;
  for (size_t i = 0; i < components_.size(); ++i) {
    for (const std::string& rel : relations) {
      if (components_[i]->ContributesTo(rel)) {
        indices.push_back(i);
        break;
      }
    }
  }
  return indices;
}

Result<Component> DecomposedWorldSet::MergeRelevant(
    const std::vector<size_t>& indices) const {
  std::vector<const Component*> parts;
  parts.reserve(indices.size());
  for (size_t i : indices) parts.push_back(components_[i].get());
  return MergeComponents(parts, max_merge_);
}

Status DecomposedWorldSet::ApplyDml(const sql::Statement& stmt,
                                    const Catalog& catalog) {
  std::set<std::string> referenced;
  std::string target;
  switch (stmt.kind) {
    case sql::StatementKind::kInsert: {
      const auto& insert = static_cast<const sql::InsertStatement&>(stmt);
      target = insert.table_name;
      if (insert.query) CollectReferencedRelations(*insert.query, &referenced);
      for (const auto& row : insert.rows) {
        for (const auto& e : row) CollectReferencedRelations(*e, &referenced);
      }
      break;
    }
    case sql::StatementKind::kUpdate: {
      const auto& update = static_cast<const sql::UpdateStatement&>(stmt);
      target = update.table_name;
      if (update.where) CollectReferencedRelations(*update.where, &referenced);
      for (const auto& [col, e] : update.assignments) {
        CollectReferencedRelations(*e, &referenced);
      }
      break;
    }
    case sql::StatementKind::kDelete: {
      const auto& del = static_cast<const sql::DeleteStatement&>(stmt);
      target = del.table_name;
      if (del.where) CollectReferencedRelations(*del.where, &referenced);
      break;
    }
    default:
      return Status::InvalidArgument("not a DML statement");
  }
  referenced.insert(AsciiToLower(target));

  // The statement is planned once against the certain schemas (local
  // worlds share them) and executed per world.
  MAYBMS_ASSIGN_OR_RETURN(engine::PreparedDml plan,
                          engine::PreparedDml::Prepare(stmt, certain_,
                                                       &catalog));

  std::vector<size_t> relevant = RelevantComponents(referenced);
  if (relevant.empty()) {
    // All referenced relations are certain: apply once to the core.
    return plan.Execute(&certain_);
  }

  // General path: the update's effect may differ per world. Merge the
  // relevant components; apply the update in each local world; the target
  // relation becomes per-alternative content.
  MAYBMS_ASSIGN_OR_RETURN(Component merged, MergeRelevant(relevant));
  std::string target_lower = AsciiToLower(target);
  base::ThreadPool& pool = base::ThreadPool::Shared();
  const size_t n = merged.size();
  std::vector<Table> new_contents(n);
  // A PreparedDml caches per-execution state, so each slot gets its own;
  // slot 0 adopts the plan prepared above (preparation errors already
  // surfaced there, exactly as in the sequential path).
  std::vector<std::optional<engine::PreparedDml>> plans(pool.Slots(threads_));
  plans[0].emplace(std::move(plan));
  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      n, threads_, [&](size_t i, size_t slot, size_t) -> Status {
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot], engine::PreparedDml::Prepare(stmt, certain_,
                                                        &catalog));
        }
        Database local = BuildLocalDatabase({&merged.alternatives[i]});
        // All-or-nothing per world.
        MAYBMS_RETURN_NOT_OK(plans[slot]->Execute(&local));
        MAYBMS_ASSIGN_OR_RETURN(const Table* updated,
                                local.GetRelation(target));
        new_contents[i] = *updated;
        return Status::OK();
      }));

  // Commit: the merged component carries the full per-world contents of
  // the target relation; its certain part becomes empty.
  for (size_t i = 0; i < merged.alternatives.size(); ++i) {
    merged.alternatives[i].tuples[target_lower] = new_contents[i].rows();
  }
  // The target's contents moved into the merged component: swap an empty
  // instance into the core instead of cloning a (possibly shared) table
  // just to clear it.
  MAYBMS_ASSIGN_OR_RETURN(const Table* core_table,
                          certain_.GetRelation(target));
  certain_.PutRelation(target, Table(core_table->schema()));

  std::sort(relevant.rbegin(), relevant.rend());
  for (size_t i : relevant) {
    components_.erase(components_.begin() + static_cast<long>(i));
  }
  components_.push_back(ShareComponent(std::move(merged)));
  return Status::OK();
}

bool DecomposedWorldSet::QualifiesForFastPath(
    const sql::SelectStatement& stmt,
    const std::set<std::string>& referenced) const {
  if (stmt.from.size() != 1 || referenced.size() != 1) return false;
  if (!stmt.joins.empty()) return false;  // self-joins correlate tuples
  if (stmt.union_next || stmt.distinct) return false;
  if (!stmt.group_by.empty() || stmt.having || !stmt.order_by.empty() ||
      stmt.limit.has_value()) {
    return false;
  }
  if (stmt.where &&
      (ContainsSubquery(*stmt.where) || engine::ContainsAggregate(*stmt.where))) {
    return false;
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) continue;
    if (ContainsSubquery(*item.expr) || engine::ContainsAggregate(*item.expr)) {
      return false;
    }
  }
  return true;
}

Result<DecomposedWorldSet::PipelineOutput> DecomposedWorldSet::RunPipeline(
    const sql::SelectStatement& stmt, const std::string& result_name) const {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  if (stmt.group_worlds_by && engine::HasWorldOps(*stmt.group_worlds_by)) {
    return Status::Unsupported(
        "the GROUP WORLDS BY query must be a plain SQL query");
  }

  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  std::set<std::string> referenced;
  CollectReferencedRelations(stmt, &referenced);
  std::vector<size_t> relevant = RelevantComponents(referenced);

  const bool needs_merge_tail =
      stmt.assert_condition != nullptr || stmt.group_worlds_by != nullptr;

  // Per-alternative loops below run on the shared pool; per-chunk
  // accumulators merged in chunk order and per-slot prepared plans keep
  // results and errors byte-identical at every thread count.
  base::ThreadPool& pool = base::ThreadPool::Shared();
  const size_t slots = pool.Slots(threads_);

  PipelineOutput out;

  // When a quantifier collapses the answer and nothing downstream needs
  // per-alternative results (no assert, no grouping), the merged paths
  // stream each local world's answer into the combiner as it is produced
  // and discard it immediately instead of materializing `merged.results`.
  const bool stream_feed = stmt.quantifier != sql::WorldQuantifier::kNone &&
                           !needs_merge_tail;
  std::optional<QuantifierCombiner> stream_combiner;
  bool streamed = false;
  if (stream_feed) {
    MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner c,
                            QuantifierCombiner::Create(stmt.quantifier));
    stream_combiner.emplace(std::move(c));
  }

  // ---- Step 1: compute the result representation. ----
  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    // Plan the repair/choice source pipeline and the projection once: the
    // certain core and every local world share one schema catalog.
    MAYBMS_ASSIGN_OR_RETURN(engine::PreparedFromWhere source_plan,
                            engine::PreparedFromWhere::Prepare(stmt, certain_));
    MAYBMS_ASSIGN_OR_RETURN(
        engine::PreparedProjection projection,
        engine::PreparedProjection::Prepare(*core, certain_,
                                            source_plan.output_schema()));
    if (relevant.empty()) {
      // The clean product construction: repair creates one component per
      // key group, choice a single component. This is the O(n·g)
      // representation of g^n worlds.
      MAYBMS_ASSIGN_OR_RETURN(Table source, source_plan.Execute(certain_));
      std::vector<PartitionBlock> blocks;
      if (stmt.repair.has_value()) {
        MAYBMS_ASSIGN_OR_RETURN(blocks, RepairPartition(source, *stmt.repair));
      } else {
        MAYBMS_ASSIGN_OR_RETURN(blocks, ChoicePartition(source, *stmt.choice));
      }
      DecomposedResult result;
      result.schema = projection.output_schema();
      for (const PartitionBlock& block : blocks) {
        // Each block becomes one component whose alternatives are this
        // block's choices: charge them as the decomposition's unit of
        // world fan-out (the explicit engine charges the full product;
        // the decomposed representation IS the O(n·g) compression).
        MAYBMS_RETURN_NOT_OK(
            base::GovernChargeWorlds(block.choices.size()));
        Component comp;
        for (const WeightedChoice& choice : block.choices) {
          std::vector<Tuple> chosen;
          chosen.reserve(choice.row_indices.size());
          for (size_t r : choice.row_indices) chosen.push_back(source.row(r));
          MAYBMS_ASSIGN_OR_RETURN(Table projected,
                                  projection.Execute(certain_, chosen));
          MAYBMS_RETURN_NOT_OK(
              base::GovernChargeBytes(base::EstimateTableBytes(
                  projected.num_rows(), projected.schema().num_columns())));
          Alternative alt;
          alt.probability = choice.probability;
          alt.tuples[kResultKey] = projected.rows();
          comp.alternatives.push_back(std::move(alt));
        }
        result.new_components.push_back(std::move(comp));
      }
      out.decomposed = std::move(result);
    } else {
      // Repair/choice over an uncertain source: flatten within each local
      // world of the relevant sub-product. The outer loop over source
      // alternatives stays sequential (alternative i's emissions precede
      // alternative i+1's source evaluation, exactly as before); the
      // combo enumeration inside one alternative runs on the pool, each
      // combo decoded from its ordinal in the same little-endian block
      // order the sequential odometer walked.
      MAYBMS_ASSIGN_OR_RETURN(Component merged_src, MergeRelevant(relevant));
      MergedResult merged;
      merged.replaced = relevant;
      std::vector<std::optional<engine::PreparedProjection>> projections(
          slots);
      projections[0].emplace(std::move(projection));
      std::vector<std::optional<QuantifierCombiner>> chunk_combiners;
      size_t flat_count = 0;
      for (const Alternative& alt : merged_src.alternatives) {
        MAYBMS_RETURN_NOT_OK(base::GovernPoll());
        Database local = BuildLocalDatabase({&alt});
        MAYBMS_ASSIGN_OR_RETURN(Table source, source_plan.Execute(local));
        std::vector<PartitionBlock> blocks;
        if (stmt.repair.has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(blocks,
                                  RepairPartition(source, *stmt.repair));
        } else {
          MAYBMS_ASSIGN_OR_RETURN(blocks,
                                  ChoicePartition(source, *stmt.choice));
        }
        // Combo count, checked against the merge cap before emission (the
        // sequential walk checked after each emitted world — same error,
        // surfaced earlier).
        size_t combos = 1;
        for (const PartitionBlock& block : blocks) {
          const size_t choices = block.choices.size();
          if (choices != 0 &&
              combos > std::numeric_limits<size_t>::max() / choices) {
            return Status::Unsupported(
                "repair/choice over an uncertain source exceeds the merge "
                "cap of " +
                std::to_string(max_merge_) + " alternatives");
          }
          combos *= choices;
          if (max_merge_ != 0 && flat_count + combos > max_merge_) {
            return Status::Unsupported(
                "repair/choice over an uncertain source exceeds the merge "
                "cap of " +
                std::to_string(max_merge_) + " alternatives");
          }
        }
        const size_t base = merged.component.alternatives.size();
        MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(combos));
        if (stream_feed) {
          chunk_combiners.clear();
          chunk_combiners.resize(base::ThreadPool::NumChunks(combos));
        } else {
          merged.component.alternatives.resize(base + combos);
          merged.results.resize(base + combos);
        }
        MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
            combos, threads_,
            [&](size_t c, size_t slot, size_t chunk) -> Status {
              if (!projections[slot].has_value()) {
                MAYBMS_ASSIGN_OR_RETURN(
                    projections[slot],
                    engine::PreparedProjection::Prepare(
                        *core, certain_, source_plan.output_schema()));
              }
              double prob = alt.probability;
              std::vector<size_t> rows;
              size_t rem = c;
              for (size_t b = 0; b < blocks.size(); ++b) {
                const size_t digit = rem % blocks[b].choices.size();
                rem /= blocks[b].choices.size();
                const WeightedChoice& choice = blocks[b].choices[digit];
                prob *= choice.probability;
                rows.insert(rows.end(), choice.row_indices.begin(),
                            choice.row_indices.end());
              }
              std::vector<Tuple> chosen;
              chosen.reserve(rows.size());
              for (size_t r : rows) chosen.push_back(source.row(r));
              MAYBMS_ASSIGN_OR_RETURN(
                  Table result, projections[slot]->Execute(local, chosen));
              MAYBMS_RETURN_NOT_OK(
                  base::GovernChargeBytes(base::EstimateTableBytes(
                      result.num_rows(), result.schema().num_columns())));
              if (stream_feed) {
                if (!chunk_combiners[chunk].has_value()) {
                  MAYBMS_ASSIGN_OR_RETURN(
                      chunk_combiners[chunk],
                      QuantifierCombiner::Create(stmt.quantifier));
                }
                chunk_combiners[chunk]->Feed(prob, result);
              } else {
                Alternative flat = alt;
                flat.probability = prob;
                merged.component.alternatives[base + c] = std::move(flat);
                merged.results[base + c] = std::move(result);
              }
              return Status::OK();
            }));
        flat_count += combos;
        if (stream_feed) {
          for (auto& cc : chunk_combiners) {
            if (cc.has_value()) stream_combiner->Merge(std::move(*cc));
          }
        }
      }
      if (stream_feed) {
        streamed = true;
      } else {
        out.merged = std::move(merged);
      }
    }
  } else if (relevant.empty()) {
    // Entirely certain input: one evaluation suffices.
    MAYBMS_ASSIGN_OR_RETURN(Table result,
                            engine::ExecuteSelect(*core, certain_));
    out.certain_result = std::move(result);
  } else if (!needs_merge_tail && QualifiesForFastPath(stmt, referenced)) {
    // Fast path: push selection/projection into each alternative — no
    // component merging, component structure preserved.
    const std::string rel = AsciiToLower(stmt.from[0].table_name);
    MAYBMS_ASSIGN_OR_RETURN(const Table* base, certain_.GetRelation(rel));
    Schema qualified =
        base->schema().WithQualifier(stmt.from[0].effective_alias());

    // One prepared projection + shared WHERE subquery plans serve the
    // certain rows and every alternative's contribution.
    MAYBMS_ASSIGN_OR_RETURN(
        engine::PreparedProjection projection,
        engine::PreparedProjection::Prepare(*core, certain_, qualified));
    engine::SubqueryPlanCache where_plans;

    DecomposedResult result;
    result.schema = projection.output_schema();
    MAYBMS_ASSIGN_OR_RETURN(
        result.certain_rows,
        FilterProjectRows(*core, certain_, qualified, base->rows(), projection,
                          &where_plans));
    result.component_indices = relevant;
    for (size_t idx : relevant) {
      std::vector<std::vector<Tuple>> per_alt;
      per_alt.reserve(components_[idx]->size());
      for (const Alternative& alt : components_[idx]->alternatives) {
        MAYBMS_RETURN_NOT_OK(base::GovernPoll());
        const std::vector<Tuple>* rows = alt.TuplesFor(rel);
        std::vector<Tuple> projected;
        if (rows != nullptr) {
          MAYBMS_ASSIGN_OR_RETURN(
              projected, FilterProjectRows(*core, certain_, qualified, *rows,
                                           projection, &where_plans));
          MAYBMS_RETURN_NOT_OK(
              base::GovernChargeBytes(base::EstimateTableBytes(
                  projected.size(), result.schema.num_columns())));
        }
        per_alt.push_back(std::move(projected));
      }
      result.contributions.push_back(std::move(per_alt));
    }
    out.decomposed = std::move(result);
  } else {
    // General path: enumerate the relevant sub-product, evaluate the SQL
    // core in each local world. The core is planned once against the
    // certain schemas (local worlds only append rows, never change
    // schemas) and executed per alternative.
    MAYBMS_ASSIGN_OR_RETURN(Component merged_src, MergeRelevant(relevant));
    MAYBMS_ASSIGN_OR_RETURN(engine::PreparedSelect core_plan,
                            engine::PreparedSelect::Prepare(*core, certain_));
    // One execution loop, two sinks: streaming mode combines and drops
    // each local world's answer on the spot (neither the answers nor the
    // merged component reach the pipeline output — the quantifier
    // collapses everything to one certain relation); otherwise the
    // answers are retained for the assert/grouping/materialize tails.
    MergedResult merged;
    merged.replaced = relevant;
    const size_t n = merged_src.size();
    std::vector<std::optional<engine::PreparedSelect>> plans(slots);
    plans[0].emplace(std::move(core_plan));
    std::vector<std::optional<QuantifierCombiner>> chunk_combiners;
    if (stream_feed) {
      chunk_combiners.resize(base::ThreadPool::NumChunks(n));
    } else {
      merged.results.resize(n);
    }
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        n, threads_, [&](size_t i, size_t slot, size_t chunk) -> Status {
          if (!plans[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(
                plans[slot], engine::PreparedSelect::Prepare(*core, certain_));
          }
          const Alternative& alt = merged_src.alternatives[i];
          Database local = BuildLocalDatabase({&alt});
          MAYBMS_ASSIGN_OR_RETURN(Table result, plans[slot]->Execute(local));
          MAYBMS_RETURN_NOT_OK(
              base::GovernChargeBytes(base::EstimateTableBytes(
                  result.num_rows(), result.schema().num_columns())));
          if (stream_feed) {
            if (!chunk_combiners[chunk].has_value()) {
              MAYBMS_ASSIGN_OR_RETURN(
                  chunk_combiners[chunk],
                  QuantifierCombiner::Create(stmt.quantifier));
            }
            chunk_combiners[chunk]->Feed(alt.probability, result);
          } else {
            merged.results[i] = std::move(result);
          }
          return Status::OK();
        }));
    if (stream_feed) {
      for (auto& cc : chunk_combiners) {
        if (cc.has_value()) stream_combiner->Merge(std::move(*cc));
      }
      streamed = true;
    } else {
      merged.component = std::move(merged_src);
      out.merged = std::move(merged);
    }
  }

  // ---- Step 2: assert. ----
  if (stmt.assert_condition) {
    if (out.certain_result.has_value()) {
      Database extended = certain_;
      extended.PutRelation(result_name, *out.certain_result);
      engine::EvalContext ctx{&extended, nullptr, nullptr, nullptr, nullptr,
                              nullptr};
      MAYBMS_ASSIGN_OR_RETURN(
          Trivalent keep, engine::EvalPredicate(*stmt.assert_condition, ctx));
      if (keep != Trivalent::kTrue) {
        return Status::EmptyWorldSet("assert eliminated every world");
      }
    } else {
      // Convert the repair/choice product into merged form if needed
      // (assert correlates the blocks).
      if (out.decomposed.has_value()) {
        const DecomposedResult& dec = *out.decomposed;
        std::vector<const Component*> parts;
        for (const Component& c : dec.new_components) parts.push_back(&c);
        MAYBMS_ASSIGN_OR_RETURN(Component flat,
                                MergeComponents(parts, max_merge_));
        MergedResult merged;
        merged.replaced = dec.component_indices;  // empty for repair/choice
        for (Alternative& alt : flat.alternatives) {
          Table result(dec.schema);
          for (const Tuple& t : dec.certain_rows) result.AppendUnchecked(t);
          auto it = alt.tuples.find(kResultKey);
          if (it != alt.tuples.end()) {
            for (const Tuple& t : it->second) result.AppendUnchecked(t);
            alt.tuples.erase(it);
          }
          merged.results.push_back(std::move(result));
        }
        merged.component = std::move(flat);
        out.merged = std::move(merged);
        out.decomposed.reset();
      }
      MergedResult& merged = *out.merged;
      const size_t n = merged.component.alternatives.size();
      // Assert predicates run in parallel into per-world keep flags;
      // subquery plan caches mutate during evaluation, so each slot gets
      // its own. Compaction stays sequential, in world order.
      std::vector<char> keep_flags(n, 0);
      std::vector<engine::SubqueryPlanCache> assert_plans(slots);
      MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
          n, threads_, [&](size_t i, size_t slot, size_t) -> Status {
            Database local =
                BuildLocalDatabase({&merged.component.alternatives[i]});
            local.PutRelation(result_name, merged.results[i]);
            engine::SubqueryCache assert_cache(&assert_plans[slot]);
            engine::EvalContext ctx{&local,  nullptr, nullptr,
                                    nullptr, nullptr, &assert_cache};
            MAYBMS_ASSIGN_OR_RETURN(
                Trivalent keep,
                engine::EvalPredicate(*stmt.assert_condition, ctx));
            keep_flags[i] = keep == Trivalent::kTrue ? 1 : 0;
            return Status::OK();
          }));
      Component surviving;
      std::vector<Table> surviving_results;
      for (size_t i = 0; i < n; ++i) {
        if (!keep_flags[i]) continue;
        surviving.alternatives.push_back(
            std::move(merged.component.alternatives[i]));
        surviving_results.push_back(std::move(merged.results[i]));
      }
      if (surviving.alternatives.empty()) {
        return Status::EmptyWorldSet("assert eliminated every world");
      }
      MAYBMS_RETURN_NOT_OK(surviving.Normalize());
      merged.component = std::move(surviving);
      merged.results = std::move(surviving_results);
    }
  }

  // ---- Step 3: group worlds by / quantifier. ----
  if (stmt.group_worlds_by) {
    // Grouping needs per-world answers: merge if not already merged.
    if (out.decomposed.has_value()) {
      const DecomposedResult& dec = *out.decomposed;
      std::vector<const Component*> parts;
      for (const Component& c : dec.new_components) parts.push_back(&c);
      std::vector<size_t> replaced = dec.component_indices;
      if (!replaced.empty()) {
        MAYBMS_ASSIGN_OR_RETURN(Component flat, MergeRelevant(replaced));
        // Rebuild per-alternative result tables from the contributions.
        // For simplicity fall back to the general merged evaluation.
        MAYBMS_ASSIGN_OR_RETURN(
            engine::PreparedSelect core_plan,
            engine::PreparedSelect::Prepare(*core, certain_));
        MergedResult merged;
        merged.replaced = replaced;
        merged.component = std::move(flat);
        const size_t n = merged.component.alternatives.size();
        merged.results.resize(n);
        std::vector<std::optional<engine::PreparedSelect>> plans(slots);
        plans[0].emplace(std::move(core_plan));
        MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
            n, threads_, [&](size_t i, size_t slot, size_t) -> Status {
              if (!plans[slot].has_value()) {
                MAYBMS_ASSIGN_OR_RETURN(
                    plans[slot],
                    engine::PreparedSelect::Prepare(*core, certain_));
              }
              Database local =
                  BuildLocalDatabase({&merged.component.alternatives[i]});
              MAYBMS_ASSIGN_OR_RETURN(merged.results[i],
                                      plans[slot]->Execute(local));
              return Status::OK();
            }));
        out.merged = std::move(merged);
      } else {
        MAYBMS_ASSIGN_OR_RETURN(Component flat,
                                MergeComponents(parts, max_merge_));
        MergedResult merged;
        for (Alternative& alt : flat.alternatives) {
          Table result(dec.schema);
          for (const Tuple& t : dec.certain_rows) result.AppendUnchecked(t);
          auto it = alt.tuples.find(kResultKey);
          if (it != alt.tuples.end()) {
            for (const Tuple& t : it->second) result.AppendUnchecked(t);
            alt.tuples.erase(it);
          }
          merged.results.push_back(std::move(result));
        }
        merged.component = std::move(flat);
        out.merged = std::move(merged);
      }
      out.decomposed.reset();
    }
    if (out.certain_result.has_value()) {
      // Single (class of) world(s): one group.
      Database extended = certain_;
      extended.PutRelation(result_name, *out.certain_result);
      MAYBMS_ASSIGN_OR_RETURN(
          Table key, engine::ExecuteSelect(*stmt.group_worlds_by, extended));
      std::vector<std::pair<double, const Table*>> entries = {
          {1.0, &*out.certain_result}};
      MAYBMS_ASSIGN_OR_RETURN(Table combined,
                              CombineByQuantifier(stmt.quantifier, entries));
      out.groups.push_back(SelectEvaluation::GroupResult{
          1.0, CanonicalizeGroupKey(key), combined});
      out.certain_result = std::move(combined);
    } else {
      MergedResult& merged = *out.merged;
      const size_t n = merged.component.alternatives.size();
      // The grouping query is planned against a local world (it may
      // reference the result relation, which only exists there) — once
      // per slot, lazily at the slot's first world; every local world
      // shares one schema catalog, so the plans are identical.
      std::vector<std::optional<engine::PreparedSelect>> group_plans(slots);
      std::vector<Table> answers(n);
      MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
          n, threads_, [&](size_t i, size_t slot, size_t) -> Status {
            Database local =
                BuildLocalDatabase({&merged.component.alternatives[i]});
            local.PutRelation(result_name, merged.results[i]);
            if (!group_plans[slot].has_value()) {
              MAYBMS_ASSIGN_OR_RETURN(group_plans[slot],
                                      engine::PreparedSelect::Prepare(
                                          *stmt.group_worlds_by, local));
            }
            MAYBMS_ASSIGN_OR_RETURN(answers[i],
                                    group_plans[slot]->Execute(local));
            return Status::OK();
          }));
      std::map<std::vector<Tuple>, std::vector<size_t>> groups;
      std::map<std::vector<Tuple>, Table> key_tables;
      for (size_t i = 0; i < n; ++i) {
        Table canonical = CanonicalizeGroupKey(answers[i]);
        std::vector<Tuple> key = canonical.rows();
        key_tables.emplace(key, std::move(canonical));
        groups[std::move(key)].push_back(i);
      }
      for (const auto& [key, members] : groups) {
        MAYBMS_RETURN_NOT_OK(base::GovernPoll());
        double group_prob = 0;
        for (size_t i : members) {
          group_prob += merged.component.alternatives[i].probability;
        }
        std::vector<std::pair<double, const Table*>> entries;
        for (size_t i : members) {
          entries.emplace_back(
              group_prob > 0
                  ? merged.component.alternatives[i].probability / group_prob
                  : 0,
              &merged.results[i]);
        }
        MAYBMS_ASSIGN_OR_RETURN(Table combined,
                                CombineByQuantifier(stmt.quantifier, entries));
        for (size_t i : members) merged.results[i] = combined;
        out.groups.push_back(SelectEvaluation::GroupResult{
            group_prob, key_tables.at(key), std::move(combined)});
      }
    }
  } else if (stmt.quantifier != sql::WorldQuantifier::kNone) {
    if (streamed) {
      // The merged paths above already folded every local world's answer
      // into the combiner.
      MAYBMS_ASSIGN_OR_RETURN(Table combined, stream_combiner->Finish());
      out.combined = std::move(combined);
    } else if (out.certain_result.has_value()) {
      std::vector<std::pair<double, const Table*>> entries = {
          {1.0, &*out.certain_result}};
      MAYBMS_ASSIGN_OR_RETURN(out.combined,
                              CombineByQuantifier(stmt.quantifier, entries));
    } else if (out.merged.has_value()) {
      std::vector<std::pair<double, const Table*>> entries;
      const MergedResult& merged = *out.merged;
      for (size_t i = 0; i < merged.component.alternatives.size(); ++i) {
        entries.emplace_back(merged.component.alternatives[i].probability,
                             &merged.results[i]);
      }
      MAYBMS_ASSIGN_OR_RETURN(out.combined,
                              CombineByQuantifier(stmt.quantifier, entries));
    } else {
      // Decomposed result: per-component math, no enumeration.
      const DecomposedResult& dec = *out.decomposed;

      // View: per component, (probability, rows) per alternative.
      struct ContribView {
        double probability;
        const std::vector<Tuple>* rows;
      };
      std::vector<std::vector<ContribView>> views;
      for (size_t k = 0; k < dec.component_indices.size(); ++k) {
        const Component& comp = *components_[dec.component_indices[k]];
        std::vector<ContribView> view;
        for (size_t j = 0; j < comp.size(); ++j) {
          view.push_back(ContribView{comp.alternatives[j].probability,
                                     &dec.contributions[k][j]});
        }
        views.push_back(std::move(view));
      }
      static const std::vector<Tuple>* const kNoRows = new std::vector<Tuple>();
      for (const Component& comp : dec.new_components) {
        std::vector<ContribView> view;
        for (const Alternative& alt : comp.alternatives) {
          const std::vector<Tuple>* rows = alt.TuplesFor(kResultKey);
          view.push_back(
              ContribView{alt.probability, rows != nullptr ? rows : kNoRows});
        }
        views.push_back(std::move(view));
      }

      if (stmt.quantifier == sql::WorldQuantifier::kPossible) {
        Table result(dec.schema);
        for (const Tuple& t : dec.certain_rows) result.AppendUnchecked(t);
        for (const auto& view : views) {
          MAYBMS_RETURN_NOT_OK(base::GovernPoll());
          for (const ContribView& cv : view) {
            for (const Tuple& t : *cv.rows) result.AppendUnchecked(t);
          }
        }
        result.DeduplicateRows();
        out.combined = std::move(result);
      } else if (stmt.quantifier == sql::WorldQuantifier::kCertain) {
        // t is certain iff it is in the certain part or some component
        // yields it in every alternative.
        Table result(dec.schema);
        std::set<Tuple> emitted;
        for (const Tuple& t : dec.certain_rows) emitted.insert(t);
        for (const auto& view : views) {
          MAYBMS_RETURN_NOT_OK(base::GovernPoll());
          if (view.empty()) continue;
          std::set<Tuple> candidates(view[0].rows->begin(),
                                     view[0].rows->end());
          for (size_t j = 1; j < view.size() && !candidates.empty(); ++j) {
            std::set<Tuple> next;
            for (const Tuple& t : *view[j].rows) {
              if (candidates.count(t)) next.insert(t);
            }
            candidates = std::move(next);
          }
          emitted.insert(candidates.begin(), candidates.end());
        }
        for (const Tuple& t : emitted) result.AppendUnchecked(t);
        out.combined = std::move(result);
      } else {  // conf — closed form 1 - prod_c (1 - p_c(t)).
        std::map<Tuple, double> not_prob;  // t -> prod (1 - p_c(t))
        std::set<Tuple> certain_set(dec.certain_rows.begin(),
                                    dec.certain_rows.end());
        for (const auto& view : views) {
          MAYBMS_RETURN_NOT_OK(base::GovernPoll());
          std::map<Tuple, double> p_c;
          for (const ContribView& cv : view) {
            std::set<Tuple> distinct(cv.rows->begin(), cv.rows->end());
            for (const Tuple& t : distinct) p_c[t] += cv.probability;
          }
          for (const auto& [t, p] : p_c) {
            auto [it, inserted] = not_prob.emplace(t, 1.0);
            it->second *= (1.0 - p);
          }
        }
        bool zero_ary = dec.schema.num_columns() == 0;
        if (zero_ary) {
          double conf = certain_set.empty()
                            ? (not_prob.empty() ? 0.0
                                                : 1.0 - not_prob.begin()->second)
                            : 1.0;
          Schema schema;
          schema.AddColumn(Column("conf", DataType::kReal));
          Table result(std::move(schema));
          result.AppendUnchecked(Tuple({Value::Real(conf)}));
          out.combined = std::move(result);
        } else {
          Schema schema = dec.schema;
          schema.AddColumn(Column("conf", DataType::kReal));
          Table result(std::move(schema));
          std::map<Tuple, double> conf;
          for (const Tuple& t : certain_set) conf[t] = 1.0;
          for (const auto& [t, np] : not_prob) {
            if (certain_set.count(t)) continue;
            conf[t] = 1.0 - np;
          }
          for (const auto& [t, p] : conf) {
            Tuple extended = t;
            extended.Append(Value::Real(p));
            result.AppendUnchecked(std::move(extended));
          }
          out.combined = std::move(result);
        }
      }
    }
  }

  return out;
}

Result<std::vector<SelectEvaluation::GroupResult>>
DecomposedWorldSet::EvaluateGroupedStreaming(
    const sql::SelectStatement& stmt) const {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  if (engine::HasWorldOps(*stmt.group_worlds_by)) {
    return Status::Unsupported(
        "the GROUP WORLDS BY query must be a plain SQL query");
  }
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  std::set<std::string> referenced;
  CollectReferencedRelations(stmt, &referenced);
  std::vector<size_t> relevant = RelevantComponents(referenced);

  // The shared grouped accumulator (worlds/combiner.h): one combiner per
  // distinct group key, fed unnormalized probabilities, normalized per
  // group at Finish — identical semantics on both engines.
  GroupedQuantifierCombiner grouped(stmt.quantifier);

  if (relevant.empty()) {
    // Entirely certain input: every world computes the same answer and
    // the same group key — a single group of probability one.
    MAYBMS_ASSIGN_OR_RETURN(Table result,
                            engine::ExecuteSelect(*core, certain_));
    if (stmt.assert_condition) {
      engine::EvalContext ctx{&certain_, nullptr, nullptr, nullptr, nullptr,
                              nullptr};
      MAYBMS_ASSIGN_OR_RETURN(
          Trivalent keep, engine::EvalPredicate(*stmt.assert_condition, ctx));
      if (keep != Trivalent::kTrue) {
        return Status::EmptyWorldSet("assert eliminated every world");
      }
    }
    MAYBMS_ASSIGN_OR_RETURN(
        Table key, engine::ExecuteSelect(*stmt.group_worlds_by, certain_));
    MAYBMS_RETURN_NOT_OK(grouped.Feed(1.0, result, key));
    return grouped.Finish();
  }

  // Merge the relevant sub-product (the group key needs every local
  // world), then stream: each local world's answer is combined into its
  // group's accumulator and dropped — `merged.results` never exists.
  MAYBMS_ASSIGN_OR_RETURN(Component merged_src, MergeRelevant(relevant));
  MAYBMS_ASSIGN_OR_RETURN(engine::PreparedSelect core_plan,
                          engine::PreparedSelect::Prepare(*core, certain_));

  // Parallel streaming: per-chunk grouped combiners merged in chunk order
  // reproduce the sequential feed order; prepared plans and subquery
  // caches are per slot. The group plan stays lazily prepared at a slot's
  // first *surviving* world — no survivors means no preparation, exactly
  // as in the sequential path.
  base::ThreadPool& pool = base::ThreadPool::Shared();
  const size_t slots = pool.Slots(threads_);
  const size_t n = merged_src.size();
  std::vector<std::optional<engine::PreparedSelect>> core_plans(slots);
  core_plans[0].emplace(std::move(core_plan));
  std::vector<std::optional<engine::PreparedSelect>> group_plans(slots);
  std::vector<engine::SubqueryPlanCache> assert_plans(slots);
  std::vector<std::optional<GroupedQuantifierCombiner>> chunks(
      base::ThreadPool::NumChunks(n));

  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      n, threads_, [&](size_t i, size_t slot, size_t chunk) -> Status {
        if (!core_plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              core_plans[slot], engine::PreparedSelect::Prepare(*core,
                                                                certain_));
        }
        const Alternative& alt = merged_src.alternatives[i];
        Database local = BuildLocalDatabase({&alt});
        MAYBMS_ASSIGN_OR_RETURN(Table result, core_plans[slot]->Execute(local));
        MAYBMS_RETURN_NOT_OK(
            base::GovernChargeBytes(base::EstimateTableBytes(
                result.num_rows(), result.schema().num_columns())));
        if (stmt.assert_condition) {
          engine::SubqueryCache assert_cache(&assert_plans[slot]);
          engine::EvalContext ctx{&local,  nullptr, nullptr,
                                  nullptr, nullptr, &assert_cache};
          MAYBMS_ASSIGN_OR_RETURN(
              Trivalent keep,
              engine::EvalPredicate(*stmt.assert_condition, ctx));
          if (keep != Trivalent::kTrue) return Status::OK();
        }
        if (!group_plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(group_plans[slot],
                                  engine::PreparedSelect::Prepare(
                                      *stmt.group_worlds_by, certain_));
        }
        MAYBMS_ASSIGN_OR_RETURN(Table answer, group_plans[slot]->Execute(local));
        if (!chunks[chunk].has_value()) chunks[chunk].emplace(stmt.quantifier);
        return chunks[chunk]->Feed(alt.probability, result, answer);
      }));
  for (auto& c : chunks) {
    if (c.has_value()) MAYBMS_RETURN_NOT_OK(grouped.Merge(std::move(*c)));
  }

  if (stmt.assert_condition && grouped.worlds_fed() == 0) {
    return Status::EmptyWorldSet("assert eliminated every world");
  }
  return grouped.Finish();
}

Result<SelectEvaluation> DecomposedWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  if (stmt.group_worlds_by && stmt.quantifier != sql::WorldQuantifier::kNone &&
      !stmt.repair.has_value() && !stmt.choice.has_value() &&
      !ReferencesInternalResult(stmt)) {
    MAYBMS_ASSIGN_OR_RETURN(std::vector<SelectEvaluation::GroupResult> groups,
                            EvaluateGroupedStreaming(stmt));
    SelectEvaluation eval;
    eval.groups = std::move(groups);
    return eval;
  }
  MAYBMS_ASSIGN_OR_RETURN(PipelineOutput out, RunPipeline(stmt, "__result"));
  SelectEvaluation eval;
  eval.combined = std::move(out.combined);
  eval.groups = std::move(out.groups);
  if (eval.combined.has_value() || !eval.groups.empty()) {
    if (!eval.groups.empty() && !eval.combined.has_value()) {
      // Groups carry the results; leave per_world empty.
      return eval;
    }
    return eval;
  }

  if (out.certain_result.has_value()) {
    eval.per_world.emplace_back(1.0, std::move(*out.certain_result));
    return eval;
  }

  if (out.merged.has_value()) {
    const MergedResult& merged = *out.merged;
    for (size_t i = 0; i < merged.component.alternatives.size(); ++i) {
      if (eval.per_world.size() >= max_worlds) {
        eval.truncated = true;
        break;
      }
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      eval.per_world.emplace_back(merged.component.alternatives[i].probability,
                                  merged.results[i]);
    }
    return eval;
  }

  // Decomposed result: enumerate the product of the involved components
  // only (all other components leave the answer unchanged).
  const DecomposedResult& dec = *out.decomposed;
  struct Involved {
    std::vector<double> probs;
    std::vector<const std::vector<Tuple>*> rows;
  };
  std::vector<Involved> involved;
  for (size_t k = 0; k < dec.component_indices.size(); ++k) {
    const Component& comp = *components_[dec.component_indices[k]];
    Involved inv;
    for (size_t j = 0; j < comp.size(); ++j) {
      inv.probs.push_back(comp.alternatives[j].probability);
      inv.rows.push_back(&dec.contributions[k][j]);
    }
    involved.push_back(std::move(inv));
  }
  static const std::vector<Tuple>* const kNoRows = new std::vector<Tuple>();
  for (const Component& comp : dec.new_components) {
    Involved inv;
    for (const Alternative& alt : comp.alternatives) {
      inv.probs.push_back(alt.probability);
      const std::vector<Tuple>* rows = alt.TuplesFor(kResultKey);
      inv.rows.push_back(rows != nullptr ? rows : kNoRows);
    }
    involved.push_back(std::move(inv));
  }

  std::vector<size_t> pick(involved.size(), 0);
  while (true) {
    if (eval.per_world.size() >= max_worlds) {
      eval.truncated = true;
      break;
    }
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    double prob = 1.0;
    Table result(dec.schema);
    for (const Tuple& t : dec.certain_rows) result.AppendUnchecked(t);
    for (size_t k = 0; k < involved.size(); ++k) {
      prob *= involved[k].probs[pick[k]];
      for (const Tuple& t : *involved[k].rows[pick[k]]) {
        result.AppendUnchecked(t);
      }
    }
    eval.per_world.emplace_back(prob, std::move(result));

    size_t k = 0;
    for (; k < involved.size(); ++k) {
      if (++pick[k] < involved[k].probs.size()) break;
      pick[k] = 0;
    }
    if (k == involved.size()) break;
  }
  return eval;
}

Status DecomposedWorldSet::MaterializeSelect(const std::string& name,
                                             const sql::SelectStatement& stmt) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  MAYBMS_ASSIGN_OR_RETURN(PipelineOutput out, RunPipeline(stmt, name));
  const std::string lower = AsciiToLower(name);
  const bool structure_dirty = stmt.assert_condition != nullptr;

  auto commit_merged = [&](MergedResult& merged, bool store_results) {
    // Replace the merged-away components.
    std::vector<size_t> replaced = merged.replaced;
    std::sort(replaced.rbegin(), replaced.rend());
    for (size_t i : replaced) {
      components_.erase(components_.begin() + static_cast<long>(i));
    }
    Schema schema = merged.results.empty() ? Schema() :
                    merged.results[0].schema();
    if (store_results) {
      for (size_t i = 0; i < merged.component.alternatives.size(); ++i) {
        merged.component.alternatives[i].tuples[lower] =
            merged.results[i].rows();
      }
    }
    certain_.PutRelation(name, Table(schema));
    components_.push_back(ShareComponent(std::move(merged.component)));
  };

  if (!out.groups.empty()) {
    // Per-group results: store per alternative (group-combined already).
    if (out.merged.has_value()) {
      commit_merged(*out.merged, /*store_results=*/true);
    } else if (out.certain_result.has_value()) {
      certain_.PutRelation(name, std::move(*out.certain_result));
    }
    return Status::OK();
  }

  if (out.combined.has_value()) {
    // Quantifier collapsed the answer to a certain relation.
    if (structure_dirty && out.merged.has_value()) {
      commit_merged(*out.merged, /*store_results=*/false);
      // Overwrite the placeholder commit_merged stored: a handle swap,
      // not a clone-and-assign.
      certain_.PutRelation(name, std::move(*out.combined));
    } else {
      certain_.PutRelation(name, std::move(*out.combined));
    }
    return Status::OK();
  }

  if (out.certain_result.has_value()) {
    certain_.PutRelation(name, std::move(*out.certain_result));
    return Status::OK();
  }

  if (out.merged.has_value()) {
    commit_merged(*out.merged, /*store_results=*/true);
    return Status::OK();
  }

  // Decomposed result: attach contributions to copies of the involved
  // components (fast path; the old instances may be shared with clones
  // and the store) and/or append the new repair/choice components.
  DecomposedResult& dec = *out.decomposed;
  certain_.PutRelation(name, Table(dec.schema, std::move(dec.certain_rows)));
  for (size_t k = 0; k < dec.component_indices.size(); ++k) {
    ComponentHandle& handle = components_[dec.component_indices[k]];
    Component comp = *handle;
    for (size_t j = 0; j < comp.size(); ++j) {
      comp.alternatives[j].tuples[lower] = std::move(dec.contributions[k][j]);
    }
    handle = ShareComponent(std::move(comp));
  }
  for (Component& comp : dec.new_components) {
    for (Alternative& alt : comp.alternatives) {
      auto it = alt.tuples.find(kResultKey);
      if (it != alt.tuples.end()) {
        alt.tuples[lower] = std::move(it->second);
        alt.tuples.erase(kResultKey);
      } else {
        alt.tuples[lower] = {};
      }
    }
    components_.push_back(ShareComponent(std::move(comp)));
  }
  return Status::OK();
}

Result<storage::DurableSnapshot> DecomposedWorldSet::ToSnapshot() const {
  storage::DurableSnapshot snapshot;
  snapshot.engine = EngineName();
  // The certain core is the only place relation instances (and schemas)
  // live; components carry schema-less per-alternative extra tuples.
  std::map<const Table*, size_t> index;
  for (const std::string& name : certain_.RelationNames()) {
    MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle handle,
                            certain_.GetRelationHandle(name));
    auto [it, inserted] = index.emplace(handle.get(), snapshot.tables.size());
    if (inserted) snapshot.tables.push_back(std::move(handle));
    snapshot.certain.push_back({name, it->second});
  }
  snapshot.components.reserve(components_.size());
  for (const ComponentHandle& component : components_) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    storage::DurableSnapshot::ComponentRef component_ref;
    // The immutable instance is the store's dedup key: a component this
    // commit shares with the last one is not written again.
    component_ref.instance = component;
    component_ref.alternatives.reserve(component->alternatives.size());
    for (const Alternative& alt : component->alternatives) {
      storage::DurableSnapshot::AlternativeRef alt_ref;
      alt_ref.probability = alt.probability;
      // std::map iteration: contributions in sorted-key order, restored
      // into the same sorted map — deterministic round trip.
      for (const auto& [relation, tuples] : alt.tuples) {
        alt_ref.contributions.emplace_back(relation, tuples);
      }
      component_ref.alternatives.push_back(std::move(alt_ref));
    }
    snapshot.components.push_back(std::move(component_ref));
  }
  return snapshot;
}

Status DecomposedWorldSet::FromSnapshot(
    const storage::DurableSnapshot& snapshot) {
  if (snapshot.engine != EngineName()) {
    return Status::InvalidArgument(
        "cannot restore a '" + snapshot.engine +
        "' snapshot into the decomposed engine");
  }
  Database certain;
  for (const auto& relation : snapshot.certain) {
    if (relation.table_index >= snapshot.tables.size()) {
      return Status::DataLoss(
          "decomposed snapshot restore: table index out of range");
    }
    certain.PutRelation(relation.name, snapshot.tables[relation.table_index]);
  }
  std::vector<ComponentHandle> components;
  components.reserve(snapshot.components.size());
  for (const auto& component_ref : snapshot.components) {
    // Builds locals and swaps at the end — a poll abort here cannot tear
    // the live set.
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    Component component;
    component.alternatives.reserve(component_ref.alternatives.size());
    for (const auto& alt_ref : component_ref.alternatives) {
      Alternative alt;
      // Probabilities adopted verbatim — no Normalize() — so restored
      // world probabilities are bit-identical.
      alt.probability = alt_ref.probability;
      for (const auto& [relation, tuples] : alt_ref.contributions) {
        alt.tuples[relation] = tuples;
      }
      component.alternatives.push_back(std::move(alt));
    }
    components.push_back(ShareComponent(std::move(component)));
  }
  certain_ = std::move(certain);
  components_ = std::move(components);
  return Status::OK();
}

}  // namespace maybms::worlds
