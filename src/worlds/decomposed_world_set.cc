#include "worlds/decomposed_world_set.h"

#include <algorithm>
#include <cmath>
#include <functional>
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
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "engine/prepared.h"
#include "worlds/partition.h"
#include "worlds/world_pipeline.h"

namespace maybms::worlds {

namespace {

bool ContainsSubquery(const sql::Expr& expr) {
  if (expr.kind == sql::ExprKind::kExists ||
      expr.kind == sql::ExprKind::kInSubquery ||
      expr.kind == sql::ExprKind::kScalarSubquery) {
    return true;
  }
  bool found = false;
  engine::ForEachChildExpr(expr, [&found](const sql::Expr& child) {
    found = found || ContainsSubquery(child);
  });
  return found;
}

/// The rows of `rows` that satisfy `where`, evaluated in `ctx` with its
/// row set per row: `rows` itself when there is no WHERE clause, else the
/// survivors, copied into `*kept`. The one filter loop of the row-local
/// route: the certain core's rows and every alternative's contribution go
/// through it.
Result<const std::vector<Tuple>*> FilterRows(const sql::Expr* where,
                                             engine::EvalContext ctx,
                                             const std::vector<Tuple>& rows,
                                             std::vector<Tuple>* kept) {
  if (where == nullptr) return &rows;
  kept->clear();
  for (const Tuple& row : rows) {
    ctx.row = &row;
    MAYBMS_ASSIGN_OR_RETURN(Trivalent keep, engine::EvalPredicate(*where, ctx));
    if (keep == Trivalent::kTrue) kept->push_back(row);
  }
  return kept;
}

/// Receives the rows of one part of a relation that satisfy WHERE: part
/// 0 is the certain core (alternative 0), part k > 0 alternative `j` of
/// the k-th relevant component. `slot` indexes per-thread state
/// (base/thread_pool.h rule 3).
using PartVisitor = std::function<Status(
    size_t part, size_t j, const std::vector<Tuple>& rows, size_t slot)>;

/// The one pass of the row-local route over one uncertain relation `rel`
/// (`base` its certain core, `qualified` its schema under the statement's
/// alias): the certain core's rows that satisfy `where` go to `visit`
/// first, on the calling thread; then each relevant
/// component is one task on the thread pool, which filters its
/// alternatives in order, polling per alternative, and hands each one's
/// kept rows (empty if it contributes none) to `visit`. Errors are
/// ParallelFor's: the first by component. The row-local scan admits no
/// subqueries, so the subquery caches are a formality of the evaluation
/// context.
Status ScanAlternatives(const Database& certain, const Table& base,
                        const std::string& rel, const Schema& qualified,
                        const sql::Expr* where,
                        const std::vector<ComponentHandle>& components,
                        const std::vector<size_t>& relevant, size_t threads,
                        const PartVisitor& visit) {
  {
    engine::SubqueryCache cache;
    std::vector<Tuple> kept;
    MAYBMS_ASSIGN_OR_RETURN(
        const std::vector<Tuple>* rows,
        FilterRows(where,
                   {&certain, &qualified, nullptr, nullptr, nullptr, &cache},
                   base.rows(), &kept));
    MAYBMS_RETURN_NOT_OK(visit(0, 0, *rows, 0));
  }
  return base::ThreadPool::Shared().ParallelFor(
      relevant.size(), threads, [&](size_t k, size_t slot, size_t) -> Status {
        const Component& component = *components[relevant[k]];
        engine::SubqueryCache cache;
        const engine::EvalContext ctx{&certain, &qualified, nullptr,
                                      nullptr,  nullptr,    &cache};
        const std::vector<Tuple> none;
        std::vector<Tuple> kept;
        for (size_t j = 0; j < component.size(); ++j) {
          MAYBMS_RETURN_NOT_OK(base::GovernPoll());
          const std::vector<Tuple>* rows =
              component.alternatives[j].TuplesFor(rel);
          if (rows != nullptr) {
            MAYBMS_ASSIGN_OR_RETURN(rows,
                                    FilterRows(where, ctx, *rows, &kept));
          }
          MAYBMS_RETURN_NOT_OK(
              visit(k + 1, j, rows == nullptr ? none : *rows, slot));
        }
        return Status::OK();
      });
}

/// The database of one local world: the certain core plus the
/// contributions of the chosen alternatives. Copying the core is
/// O(#relations) handle bumps; only the relations the choice contributes
/// to are cloned (by the copy-on-write MutableRelation).
Database BuildLocalDatabase(const Database& certain,
                            const std::vector<const Alternative*>& chosen) {
  Database db = certain;
  for (const Alternative* alt : chosen) {
    for (const auto& [rel, tuples] : alt->tuples) {
      auto table = db.MutableRelation(rel);
      if (!table.ok()) continue;  // relation dropped; stale contribution
      for (const Tuple& t : tuples) (*table)->AppendUnchecked(t);
    }
  }
  return db;
}

/// Indices of the components contributing to any of `relations`
/// (lower-case).
std::vector<size_t> RelevantComponents(
    const std::vector<ComponentHandle>& components,
    const std::set<std::string>& relations) {
  std::vector<size_t> indices;
  for (size_t i = 0; i < components.size(); ++i) {
    for (const std::string& rel : relations) {
      if (components[i]->ContributesTo(rel)) {
        indices.push_back(i);
        break;
      }
    }
  }
  return indices;
}

/// What the row-local route makes of a statement. The statement must read
/// one relation row by row: one FROM item, no join (a self-join
/// correlates tuples), set operation, DISTINCT, GROUP BY, HAVING, ORDER BY
/// or LIMIT, and a WHERE clause without subqueries or aggregates. Its
/// select list then makes it
///  * a slice: items without subqueries or aggregates, under any
///    quantifier; or
///  * an aggregate: `possible`/`certain` of exactly one `count(*)`,
///    `count(col)` or `sum(col)`. The route also needs a sum's column to
///    be declared INTEGER, which it checks against the relation's schema.
enum class RowLocal { kNone, kSlice, kAggregate };

RowLocal ClassifyRowLocal(const sql::SelectStatement& stmt,
                          const std::set<std::string>& referenced) {
  if (stmt.from.size() != 1 || referenced.size() != 1 ||
      !stmt.joins.empty() || stmt.union_next || stmt.distinct ||
      !stmt.group_by.empty() || stmt.having || !stmt.order_by.empty() ||
      stmt.limit.has_value() ||
      (stmt.where && (ContainsSubquery(*stmt.where) ||
                      engine::ContainsAggregate(*stmt.where)))) {
    return RowLocal::kNone;
  }
  const auto plain = [](const sql::SelectItem& item) {
    return item.star || (!ContainsSubquery(*item.expr) &&
                         !engine::ContainsAggregate(*item.expr));
  };
  if (std::all_of(stmt.items.begin(), stmt.items.end(), plain)) {
    return RowLocal::kSlice;
  }
  if ((stmt.quantifier != sql::WorldQuantifier::kPossible &&
       stmt.quantifier != sql::WorldQuantifier::kCertain) ||
      stmt.items.size() != 1 ||
      stmt.items[0].expr->kind != sql::ExprKind::kFunctionCall) {
    return RowLocal::kNone;
  }
  const auto& call =
      static_cast<const sql::FunctionCallExpr&>(*stmt.items[0].expr);
  const bool count = call.name == "count";
  const bool column = call.args.size() == 1 &&
                      call.args[0]->kind == sql::ExprKind::kColumnRef;
  if (call.distinct || (!count && call.name != "sum") ||
      !(call.star ? count : column)) {
    return RowLocal::kNone;
  }
  return RowLocal::kAggregate;
}

/// The decomposed form of a statement's answer: certain rows plus one
/// factor per involved component, listing what each of its alternatives
/// adds. A world's answer is the certain rows plus one chosen
/// alternative's rows per factor; a component without a factor adds
/// nothing in any world. A quantified statement's answer, once combined,
/// is certain rows alone.
struct DecomposedAnswer {
  struct Choice {
    double probability = 1.0;
    std::vector<Tuple> rows;
  };
  using Factor = std::vector<Choice>;
  Schema schema;
  std::vector<Tuple> certain_rows;
  std::vector<Factor> factors;
  /// A slice: factors[k] belongs to components_[component_indices[k]].
  /// Empty for a repair/choice product, whose factors are new components.
  std::vector<size_t> component_indices;
};

/// possible/certain/conf of a decomposed answer by per-component math, no
/// enumeration: conf uses the closed form 1 − ∏_c (1 − p_c(t)).
Result<Table> CombineClosedForm(const DecomposedAnswer& dec,
                                sql::WorldQuantifier quantifier) {
  if (quantifier == sql::WorldQuantifier::kPossible) {
    Table result(dec.schema);
    for (const Tuple& t : dec.certain_rows) result.AppendUnchecked(t);
    for (const DecomposedAnswer::Factor& factor : dec.factors) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      for (const DecomposedAnswer::Choice& choice : factor) {
        for (const Tuple& t : choice.rows) result.AppendUnchecked(t);
      }
    }
    result.DeduplicateRows();
    return result;
  }
  if (quantifier == sql::WorldQuantifier::kCertain) {
    // t is certain iff it is in the certain part or some component yields
    // it in every alternative.
    std::set<Tuple> emitted(dec.certain_rows.begin(), dec.certain_rows.end());
    for (const DecomposedAnswer::Factor& factor : dec.factors) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      if (factor.empty()) continue;
      std::set<Tuple> candidates(factor[0].rows.begin(), factor[0].rows.end());
      for (size_t j = 1; j < factor.size() && !candidates.empty(); ++j) {
        std::set<Tuple> next;
        for (const Tuple& t : factor[j].rows) {
          if (candidates.count(t)) next.insert(t);
        }
        candidates = std::move(next);
      }
      emitted.insert(candidates.begin(), candidates.end());
    }
    Table result(dec.schema);
    for (const Tuple& t : emitted) result.AppendUnchecked(t);
    return result;
  }
  std::map<Tuple, double> not_prob;  // t -> prod_c (1 - p_c(t))
  std::vector<Tuple> certain = dec.certain_rows;  // sorted, distinct
  std::sort(certain.begin(), certain.end());
  certain.erase(std::unique(certain.begin(), certain.end()), certain.end());
  for (const DecomposedAnswer::Factor& factor : dec.factors) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    std::map<Tuple, double> p_c;
    for (const DecomposedAnswer::Choice& choice : factor) {
      std::set<Tuple> distinct(choice.rows.begin(), choice.rows.end());
      for (const Tuple& t : distinct) p_c[t] += choice.probability;
    }
    for (const auto& [t, p] : p_c) {
      auto [it, inserted] = not_prob.emplace(t, 1.0);
      it->second *= (1.0 - p);
    }
  }
  Schema schema;
  if (dec.schema.num_columns() == 0) {
    double conf = 1.0;
    if (certain.empty()) {
      conf = not_prob.empty() ? 0.0 : 1.0 - not_prob.begin()->second;
    }
    schema.AddColumn(Column("conf", DataType::kReal));
    Table result(std::move(schema));
    result.AppendUnchecked(Tuple({Value::Real(conf)}));
    return result;
  }
  schema = dec.schema;
  schema.AddColumn(Column("conf", DataType::kReal));
  Table result(std::move(schema));
  auto emit = [&](const Tuple& t, double p) {
    Tuple extended = t;
    extended.Append(Value::Real(p));
    result.AppendUnchecked(std::move(extended));
  };
  // Both inputs are sorted: merge them, certain tuples at conf 1.
  auto c = certain.begin();
  for (const auto& [t, np] : not_prob) {
    for (; c != certain.end() && *c < t; ++c) emit(*c, 1.0);
    if (c != certain.end() && !(t < *c)) continue;  // certain; emitted next
    emit(t, 1.0 - np);
  }
  for (; c != certain.end(); ++c) emit(*c, 1.0);
  return result;
}

/// The values count/sum takes over the alternatives of one part of a
/// world (the certain core, or one component): `values` for those with a
/// non-NULL input (always, for a count), and `null` if some alternative
/// has none (a sum's NULL).
struct PartValues {
  bool null = false;
  std::vector<int64_t> values;  // Support::Add needs them sorted, distinct
};

/// Adds the value of `rows`, one alternative of a part, to the part's
/// values: a count's number of rows (count(*)) or of non-NULL `column`
/// values, or a sum of the column's non-NULL values (NULL if there are
/// none). False where the closed form does not apply: a non-INTEGER sum
/// input or int64 overflow.
bool FoldRows(bool sum, std::optional<size_t> column,
              const std::vector<Tuple>& rows, PartValues* part) {
  int64_t total = 0;
  bool non_null = !sum;  // a count is never NULL
  for (const Tuple& row : rows) {
    int64_t term = 1;
    if (column.has_value()) {
      const Value& value = row.value(*column);
      if (value.is_null()) continue;
      if (sum) {
        if (value.type() != DataType::kInteger) return false;
        term = value.AsInteger();
      }
    }
    non_null = true;
    if (__builtin_add_overflow(total, term, &total)) return false;
  }
  if (non_null) {
    part->values.push_back(total);
  } else {
    part->null = true;
  }
  return true;
}

/// The support of count/sum over the product of the parts added so far:
/// the distinct values its worlds answer. Parts are independent, so
/// adding one takes the sumset, with NULL (no non-NULL input yet) as the
/// empty sum: the values so far shifted by each of the part's values, the
/// part's values where the support is NULL, and the values so far where
/// the part is NULL; NULL stays only if both have it. The values are kept
/// as sorted spans of consecutive integers, so the dense supports of
/// small counts and sums stay a few spans however many values they hold;
/// each run above is a sorted list of spans, and merges into the new
/// support in one linear pass.
class Support {
 public:
  /// Adds `part`, whose values are sorted and distinct. False, leaving
  /// the support unusable, on int64 overflow or once the support would
  /// hold more than `max` values: the merge stops at the first run that
  /// passes it, so it never holds much more than `max` values and one run.
  /// Polls once per run.
  Result<bool> Add(const PartValues& part, uint64_t max) {
    const bool null = null_ && part.null;
    std::vector<Span> out;
    std::vector<Span> merged;
    std::vector<Span> run;
    uint64_t count = 0;
    auto merge = [&]() -> Result<bool> {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      if (run.empty()) return true;
      merged.clear();
      count = 0;
      auto a = out.begin();
      auto b = run.begin();
      while (a != out.end() || b != run.end()) {
        const bool from_out =
            b == run.end() || (a != out.end() && a->lo <= b->lo);
        const Span& next = from_out ? *a++ : *b++;
        if (!merged.empty() && next.lo <= merged.back().hi + 1) {
          count += std::max(next.hi, merged.back().hi) - merged.back().hi;
          merged.back().hi = std::max(next.hi, merged.back().hi);
        } else {
          count += next.hi - next.lo + 1;
          merged.push_back(next);
        }
      }
      out.swap(merged);
      return count + (null ? 1 : 0) <= max;
    };
    for (int64_t shift : part.values) {
      if (spans_.empty()) break;
      // Every shifted value lies between the shifted ends.
      int64_t lo = 0;
      int64_t hi = 0;
      if (__builtin_add_overflow(spans_.front().lo, shift, &lo) ||
          __builtin_add_overflow(spans_.back().hi, shift, &hi)) {
        return false;
      }
      run.clear();
      for (const Span& span : spans_) {
        run.push_back({span.lo + shift, span.hi + shift});
      }
      MAYBMS_ASSIGN_OR_RETURN(const bool fits, merge());
      if (!fits) return false;
    }
    if (null_) {
      run.clear();
      for (int64_t v : part.values) run.push_back({v, v});
      MAYBMS_ASSIGN_OR_RETURN(const bool fits, merge());
      if (!fits) return false;
    }
    if (part.null) {
      run = spans_;
      MAYBMS_ASSIGN_OR_RETURN(const bool fits, merge());
      if (!fits) return false;
    }
    spans_.swap(out);
    count_ = count;
    null_ = null;
    return true;
  }

  uint64_t size() const { return count_ + (null_ ? 1 : 0); }

  /// One row per value, NULL first and then ascending: the combiner's
  /// tuple order.
  std::vector<Tuple> Rows() const {
    std::vector<Tuple> rows;
    rows.reserve(size());
    if (null_) rows.push_back(Tuple({Value::Null()}));
    for (const Span& span : spans_) {
      for (int64_t v = span.lo; v <= span.hi; ++v) {
        rows.push_back(Tuple({Value::Integer(v)}));
      }
    }
    return rows;
  }

 private:
  struct Span {
    int64_t lo;  // the first and the last value
    int64_t hi;
  };

  bool null_ = true;        // before any part: the empty sum
  uint64_t count_ = 0;      // the values other than NULL
  std::vector<Span> spans_;  // their spans: sorted, apart by at least 2
};

/// possible/certain of count(*), count(col) or sum(col) over one
/// uncertain relation, without enumerating worlds: sets `*rows` to the
/// answer of `parts`, the values of the certain core (first) and of each
/// relevant component's alternatives. Components are independent, so the
/// set of per-world values is the sumset of the parts' values, added to
/// the Support in component order. `possible` answers every value of the
/// support, in the combiner's tuple order; `certain` answers the single
/// value when there is one, and nothing otherwise. No world is decoded,
/// so nothing is charged to the world budget or the world cap; the
/// support's bytes are charged to the memory budget as it grows.
///
/// Returns false, and leaves the statement to the pipeline, on a
/// component without alternatives, int64 overflow or a support larger
/// than `max_support`. Governance verdicts propagate.
Result<bool> ClosedFormAggregate(std::vector<PartValues> parts,
                                 sql::WorldQuantifier quantifier,
                                 uint64_t max_support,
                                 std::vector<Tuple>* rows) {
  Support support;
  uint64_t charged = 0;
  for (PartValues& part : parts) {
    if (part.values.empty() && !part.null) return false;  // no alternatives
    std::sort(part.values.begin(), part.values.end());
    part.values.erase(std::unique(part.values.begin(), part.values.end()),
                      part.values.end());
    MAYBMS_ASSIGN_OR_RETURN(const bool added,
                            support.Add(part, max_support));
    if (!added) return false;
    // A part can shrink the support by one: NULL may go.
    if (support.size() > charged) {
      MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(
          base::EstimateTableBytes(support.size() - charged, 1)));
      charged = support.size();
    }
  }
  *rows = support.Rows();
  if (quantifier == sql::WorldQuantifier::kCertain && rows->size() != 1) {
    rows->clear();
  }
  return true;
}

/// The clean repair/choice product over certain relations: one new
/// component per partition block, the O(n·g) form of g^n worlds.
Result<DecomposedAnswer> CleanProduct(const Database& certain,
                                      const sql::SelectStatement& stmt) {
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  MAYBMS_ASSIGN_OR_RETURN(engine::PreparedFromWhere source_plan,
                          engine::PreparedFromWhere::Prepare(stmt, certain));
  MAYBMS_ASSIGN_OR_RETURN(
      engine::PreparedProjection projection,
      engine::PreparedProjection::Prepare(*core, certain,
                                          source_plan.output_schema()));
  MAYBMS_ASSIGN_OR_RETURN(Table source, source_plan.Execute(certain));
  MAYBMS_ASSIGN_OR_RETURN(std::vector<PartitionBlock> blocks,
                          Partition(source, stmt));
  DecomposedAnswer answer;
  answer.schema = projection.output_schema();
  for (const PartitionBlock& block : blocks) {
    // Each block becomes one component whose alternatives are its
    // choices: charge them as the decomposition's unit of world fan-out
    // (the representation IS the O(n·g) compression of the product).
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(block.choices.size()));
    DecomposedAnswer::Factor factor;
    factor.reserve(block.choices.size());
    for (const WeightedChoice& choice : block.choices) {
      std::vector<Tuple> chosen;
      chosen.reserve(choice.row_indices.size());
      for (size_t r : choice.row_indices) chosen.push_back(source.row(r));
      MAYBMS_ASSIGN_OR_RETURN(Table projected,
                              projection.Execute(certain, chosen));
      MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
          projected.num_rows(), projected.schema().num_columns())));
      factor.push_back({choice.probability,
                        std::move(*projected.mutable_rows())});
    }
    answer.factors.push_back(std::move(factor));
  }
  return answer;
}

/// The row-local route over one uncertain relation (see RowLocal): one
/// setup, then one pass over the certain core and the relevant components
/// on the thread pool (ScanAlternatives) that summarizes each part's kept
/// rows
///  * for a slice, as the rows it adds to the answer, projected — only
///    the alternatives that keep a row are projected. Under a quantifier
///    only the components that kept a row get a factor (the closed forms
///    ignore the others); a quantifier-free statement lists worlds or
///    attaches rows, so every relevant component gets one;
///  * for an aggregate, as the values it gives count/sum (FoldRows),
///    which ClosedFormAggregate adds up.
/// The aggregate returns nullopt, leaving the statement to the pipeline,
/// on anything the pipeline must report or decide: an evaluation error in
/// any row (the pipeline reports the first failing world's), a
/// non-INTEGER sum input, or where ClosedFormAggregate does not apply.
Result<std::optional<DecomposedAnswer>> RowLocalAnswer(
    const Database& certain, const std::vector<ComponentHandle>& components,
    const sql::SelectStatement& stmt, RowLocal route,
    const std::vector<size_t>& relevant, size_t threads,
    uint64_t max_support) {
  std::optional<DecomposedAnswer> none;
  const std::string rel = AsciiToLower(stmt.from[0].table_name);
  MAYBMS_ASSIGN_OR_RETURN(const Table* base, certain.GetRelation(rel));
  const Schema qualified =
      base->schema().WithQualifier(stmt.from[0].effective_alias());
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  DecomposedAnswer answer;
  PartVisitor summarize;
  // A slice: one projection per slot (base/thread_pool.h rule 3), as it
  // caches subquery plans while it executes; slot 0's is prepared
  // eagerly, so preparation errors surface before any row is filtered. A
  // component's factor is sized at the first alternative that keeps a row.
  const bool slice = route == RowLocal::kSlice;
  std::vector<std::optional<engine::PreparedProjection>> projections;
  std::vector<DecomposedAnswer::Factor> factors(slice ? relevant.size() : 0);
  // An aggregate: the values of each part. A part that cannot fold fails
  // the pass with a placeholder error that never leaves this function.
  std::vector<PartValues> parts(slice ? 0 : relevant.size() + 1);
  if (slice) {
    projections.resize(base::ThreadPool::Shared().Slots(threads));
    MAYBMS_ASSIGN_OR_RETURN(
        projections[0],
        engine::PreparedProjection::Prepare(*core, certain, qualified));
    answer.schema = projections[0]->output_schema();
    summarize = [&](size_t part, size_t j, const std::vector<Tuple>& rows,
                    size_t slot) -> Status {
      if (rows.empty()) return Status::OK();
      if (!projections[slot].has_value()) {
        MAYBMS_ASSIGN_OR_RETURN(
            projections[slot],
            engine::PreparedProjection::Prepare(*core, certain, qualified));
      }
      MAYBMS_ASSIGN_OR_RETURN(std::vector<Tuple> projected,
                              projections[slot]->ProjectRows(certain, rows));
      if (part == 0) {
        answer.certain_rows = std::move(projected);
        return Status::OK();
      }
      MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
          projected.size(), answer.schema.num_columns())));
      DecomposedAnswer::Factor& factor = factors[part - 1];
      factor.resize(components[relevant[part - 1]]->size());
      factor[j].rows = std::move(projected);
      return Status::OK();
    };
  } else {
    MAYBMS_ASSIGN_OR_RETURN(engine::PreparedSelect plan,
                            engine::PreparedSelect::Prepare(*core, certain));
    answer.schema = plan.output_schema();
    const auto& call =
        static_cast<const sql::FunctionCallExpr&>(*core->items[0].expr);
    const bool sum = call.name == "sum";
    std::optional<size_t> column;
    if (!call.star) {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(*call.args[0]);
      MAYBMS_ASSIGN_OR_RETURN(column,
                              qualified.FindColumn(ref.name, ref.qualifier));
      if (sum && qualified.column(*column).type != DataType::kInteger) {
        return none;
      }
    }
    summarize = [&parts, sum, column](size_t part, size_t,
                                      const std::vector<Tuple>& rows,
                                      size_t) -> Status {
      if (FoldRows(sum, column, rows, &parts[part])) return Status::OK();
      return Status::Unsupported("outside the closed form");
    };
  }
  const Status pass =
      ScanAlternatives(certain, *base, rel, qualified, core->where.get(),
                       components, relevant, threads, summarize);
  if (!slice) {
    if (!pass.ok()) {
      // A governance verdict poisons the statement's context: report it.
      // Anything else is the pipeline's to report or decide.
      const base::QueryContext* context = base::CurrentQueryContext();
      if (context != nullptr && context->cancelled()) return base::GovernPoll();
      return none;
    }
    MAYBMS_ASSIGN_OR_RETURN(
        const bool answered,
        ClosedFormAggregate(std::move(parts), stmt.quantifier, max_support,
                            &answer.certain_rows));
    if (!answered) return none;
    return std::optional<DecomposedAnswer>(std::move(answer));
  }
  MAYBMS_RETURN_NOT_OK(pass);
  const bool dense = stmt.quantifier == sql::WorldQuantifier::kNone;
  for (size_t k = 0; k < relevant.size(); ++k) {
    DecomposedAnswer::Factor& factor = factors[k];
    if (factor.empty() && !dense) continue;
    const Component& component = *components[relevant[k]];
    factor.resize(component.size());
    for (size_t j = 0; j < component.size(); ++j) {
      factor[j].probability = component.alternatives[j].probability;
    }
    answer.component_indices.push_back(relevant[k]);
    answer.factors.push_back(std::move(factor));
  }
  return std::optional<DecomposedAnswer>(std::move(answer));
}

/// The decomposed engine's enumeration-free routes, tried before the
/// shared pipeline by statements without assert and GROUP WORLDS BY: the
/// row-local route over one uncertain relation (RowLocalAnswer), and the
/// clean repair/choice product over certain relations (CleanProduct). A
/// quantified statement's answer comes back combined, as certain rows.
/// `referenced` are the relations the statement references, `relevant`
/// the components contributing to them. Returns nullopt when the
/// statement must run through the pipeline — as one that references no
/// uncertain relation does, over one world, the certain core.
Result<std::optional<DecomposedAnswer>> Shortcut(
    const Database& certain, const std::vector<ComponentHandle>& components,
    const sql::SelectStatement& stmt, const std::set<std::string>& referenced,
    const std::vector<size_t>& relevant, size_t threads,
    uint64_t max_support) {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  std::optional<DecomposedAnswer> answer;
  if (stmt.assert_condition || stmt.group_worlds_by) return answer;
  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    if (!relevant.empty()) return answer;
    MAYBMS_ASSIGN_OR_RETURN(answer, CleanProduct(certain, stmt));
  } else {
    if (relevant.empty()) return answer;  // the pipeline's one world
    const RowLocal route = ClassifyRowLocal(stmt, referenced);
    if (route == RowLocal::kNone) return answer;
    MAYBMS_ASSIGN_OR_RETURN(answer,
                            RowLocalAnswer(certain, components, stmt, route,
                                           relevant, threads, max_support));
    // The aggregate's support is its combined answer.
    if (!answer.has_value() || route == RowLocal::kAggregate) return answer;
  }
  if (stmt.quantifier != sql::WorldQuantifier::kNone) {
    MAYBMS_ASSIGN_OR_RETURN(Table combined,
                            CombineClosedForm(*answer, stmt.quantifier));
    answer = {combined.schema(), std::move(*combined.mutable_rows()), {}, {}};
  }
  return answer;
}

/// The per-world listing of a decomposed answer: the product of the
/// involved factors only (all other components leave the answer
/// unchanged), in product order, up to `max_worlds` worlds.
Result<SelectEvaluation> ListWorlds(const DecomposedAnswer& dec,
                                    size_t max_worlds) {
  SelectEvaluation eval;
  std::vector<size_t> radices;
  for (const DecomposedAnswer::Factor& factor : dec.factors) {
    radices.push_back(factor.size());
  }
  const uint64_t total = RadixProduct(radices);
  for (uint64_t w = 0; w < total; ++w) {
    if (eval.per_world.size() >= max_worlds) {
      eval.truncated = true;
      break;
    }
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    const std::vector<size_t> digits = DecodeProductIndex(w, radices);
    double prob = 1.0;
    Table result(dec.schema);
    for (const Tuple& t : dec.certain_rows) result.AppendUnchecked(t);
    for (size_t k = 0; k < dec.factors.size(); ++k) {
      const DecomposedAnswer::Choice& choice = dec.factors[k][digits[k]];
      prob *= choice.probability;
      for (const Tuple& t : choice.rows) result.AppendUnchecked(t);
    }
    eval.per_world.emplace_back(prob, std::move(result));
  }
  return eval;
}

/// The decomposed engine's world source: the sub-product of `parts`,
/// decoded lazily from the world index (part 0 least significant) — the
/// product is never materialized. With no parts it is one world: the
/// certain core with probability 1.
///
/// A world is built into the caller's scratch, which is reused from one
/// world to the next: the first Get copies the certain core into it
/// (handle bumps), and every Get decodes its alternatives once into the
/// scratch (ChooseAlternatives) and rewrites, in place, only the
/// relations the parts contribute to — the core's rows stay, the chosen
/// alternatives' rows are assigned over the previous world's, and the
/// rest is truncated. MutableRelation clones a relation whose instance is
/// still shared (with the core, or with an answer that kept the previous
/// world's instance), so no earlier world changes.
class SubProductSource final : public WorldSource {
 public:
  SubProductSource(const Database& certain,
                   std::vector<const Component*> parts)
      : certain_(certain),
        parts_(std::move(parts)),
        size_(ProductSize(parts_)) {
    std::set<std::string> relations;
    for (const Component* part : parts_) {
      for (std::string& relation : part->Relations()) {
        relations.insert(std::move(relation));
      }
    }
    for (const std::string& relation : relations) {
      Result<const Table*> core = certain_.GetRelation(relation);
      if (!core.ok()) continue;  // relation dropped; stale contributions
      relations_.push_back({relation, (*core)->num_rows()});
    }
  }

  size_t size() const override { return size_; }
  const Database& schema_db() const override { return certain_; }
  const World& Get(size_t i, WorldScratch* scratch) const override {
    World& world = scratch->world;
    if (world.db.num_relations() == 0) world.db = certain_;
    world.probability = ChooseAlternatives(parts_, i, &scratch->chosen);
    for (const Relation& relation : relations_) {
      Result<Table*> table = world.db.MutableRelation(relation.name);
      if (!table.ok()) continue;
      std::vector<Tuple>& rows = *(*table)->mutable_rows();
      size_t n = relation.core_rows;
      for (const Alternative* alt : scratch->chosen) {
        const std::vector<Tuple>* tuples = alt->TuplesFor(relation.name);
        if (tuples == nullptr) continue;
        for (const Tuple& tuple : *tuples) {
          if (n < rows.size()) {
            rows[n] = tuple;
          } else {
            rows.push_back(tuple);
          }
          ++n;
        }
      }
      rows.resize(n);
    }
    return world;
  }
  bool decoded() const override { return !parts_.empty(); }

 private:
  struct Relation {
    std::string name;  // lower-case
    size_t core_rows;  // the certain core's rows, first in every world
  };

  const Database& certain_;
  std::vector<const Component*> parts_;
  size_t size_;
  std::vector<Relation> relations_;  // those the parts contribute to
};

}  // namespace

DecomposedWorldSet::DecomposedWorldSet(uint64_t max_worlds, size_t threads)
    : max_worlds_(max_worlds), threads_(threads) {}

std::unique_ptr<WorldSet> DecomposedWorldSet::Clone() const {
  return std::make_unique<DecomposedWorldSet>(*this);
}

void DecomposedWorldSet::MoveFrom(WorldSet&& other) {
  *this = std::move(static_cast<DecomposedWorldSet&>(other));
}

uint64_t DecomposedWorldSet::NumWorlds() const {
  return ProductSize(AllParts());
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

Result<std::vector<World>> DecomposedWorldSet::MaterializeWorlds(
    size_t max_worlds, bool* truncated) const {
  const SubProductSource source(certain_, AllParts());
  if (truncated != nullptr) *truncated = source.size() > max_worlds;
  std::vector<World> worlds;
  for (size_t i = 0; i < source.size() && i < max_worlds; ++i) {
    // Each world is a full database copy: charge it against the world
    // budget, which also polls.
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    WorldScratch scratch;
    source.Get(i, &scratch);
    worlds.push_back(std::move(scratch.world));
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
    top.emplace_back(BuildLocalDatabase(certain_, chosen), state.probability);

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
  return World(BuildLocalDatabase(certain_, chosen), probability);
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

std::vector<const Component*> DecomposedWorldSet::Parts(
    const std::vector<size_t>& indices) const {
  std::vector<const Component*> parts;
  parts.reserve(indices.size());
  for (size_t i : indices) parts.push_back(components_[i].get());
  return parts;
}

std::vector<const Component*> DecomposedWorldSet::AllParts() const {
  std::vector<const Component*> parts;
  parts.reserve(components_.size());
  for (const ComponentHandle& c : components_) parts.push_back(c.get());
  return parts;
}

Status DecomposedWorldSet::ReplaceComponents(
    const std::vector<size_t>& relevant,
    const std::vector<PipelineWorld>& worlds, const std::string& relation,
    bool attach) {
  const std::vector<const Component*> parts = Parts(relevant);
  Component replacement;
  replacement.alternatives.reserve(worlds.size());
  std::vector<const Alternative*> chosen;
  for (const PipelineWorld& world : worlds) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    ChooseAlternatives(parts, world.source_index, &chosen);
    Alternative alt = FlattenAlternatives(chosen, world.probability, relation);
    if (attach) alt.tuples[relation] = world.answer->rows();
    replacement.alternatives.push_back(std::move(alt));
  }
  // `relevant` is ascending: erase from the back so indices stay valid.
  for (auto it = relevant.rbegin(); it != relevant.rend(); ++it) {
    components_.erase(components_.begin() + static_cast<long>(*it));
  }
  components_.push_back(ShareComponent(std::move(replacement)));
  return Status::OK();
}

Status DecomposedWorldSet::ApplyDml(const sql::Statement& stmt,
                                    const Catalog& catalog) {
  std::set<std::string> referenced;
  MAYBMS_ASSIGN_OR_RETURN(const std::string target,
                          DmlTarget(stmt, &referenced));

  // The statement is planned once against the certain schemas (local
  // worlds share them) and executed per world.
  MAYBMS_ASSIGN_OR_RETURN(engine::PreparedDml plan,
                          engine::PreparedDml::Prepare(stmt, certain_,
                                                       &catalog));

  std::vector<size_t> relevant = RelevantComponents(components_, referenced);
  if (relevant.empty()) {
    // All referenced relations are certain: apply once to the core.
    return plan.Execute(&certain_);
  }

  // General path: the update's effect may differ per world. It runs in
  // every world of the relevant sub-product, and the worlds replace those
  // components with one component carrying each world's new contents of
  // the target; its core instance becomes empty. Swap an empty instance
  // in rather than clone a (possibly shared) table just to clear it.
  MAYBMS_ASSIGN_OR_RETURN(
      std::vector<PipelineWorld> worlds,
      RunDmlInEveryWorld(SubProductSource(certain_, Parts(relevant)), stmt,
                         catalog, threads_, max_worlds_));
  MAYBMS_ASSIGN_OR_RETURN(const Table* core_table,
                          certain_.GetRelation(target));
  MAYBMS_RETURN_NOT_OK(
      ReplaceComponents(relevant, worlds, AsciiToLower(target), true));
  certain_.PutRelation(target, Table(core_table->schema()));
  return Status::OK();
}

Result<PipelineResult> DecomposedWorldSet::RunPipeline(
    const sql::SelectStatement& stmt, const std::vector<size_t>& relevant,
    const std::string& result_name, size_t keep_worlds) const {
  return RunWorldPipeline(SubProductSource(certain_, Parts(relevant)), stmt,
                          {.result_name = result_name,
                           .keep_worlds = keep_worlds,
                           .threads = threads_,
                           .max_worlds = max_worlds_});
}

Result<SelectEvaluation> DecomposedWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  std::set<std::string> referenced;
  CollectReferencedRelations(stmt, &referenced);
  const std::vector<size_t> relevant =
      RelevantComponents(components_, referenced);
  MAYBMS_ASSIGN_OR_RETURN(std::optional<DecomposedAnswer> dec,
                          Shortcut(certain_, components_, stmt, referenced,
                                   relevant, threads_, max_worlds_));
  if (dec.has_value()) {
    if (stmt.quantifier == sql::WorldQuantifier::kNone) {
      return ListWorlds(*dec, max_worlds);
    }
    SelectEvaluation eval;
    eval.combined = Table(std::move(dec->schema), std::move(dec->certain_rows));
    return eval;
  }
  const size_t keep =
      stmt.quantifier == sql::WorldQuantifier::kNone ? max_worlds : 0;
  MAYBMS_ASSIGN_OR_RETURN(PipelineResult result,
                          RunPipeline(stmt, relevant, "__result", keep));
  return ToSelectEvaluation(std::move(result));
}

Status DecomposedWorldSet::MaterializeSelect(const std::string& name,
                                             const sql::SelectStatement& stmt) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  const std::string lower = AsciiToLower(name);
  std::set<std::string> referenced;
  CollectReferencedRelations(stmt, &referenced);
  const std::vector<size_t> relevant =
      RelevantComponents(components_, referenced);
  MAYBMS_ASSIGN_OR_RETURN(std::optional<DecomposedAnswer> dec,
                          Shortcut(certain_, components_, stmt, referenced,
                                   relevant, threads_, max_worlds_));
  if (dec.has_value()) {
    // Attach the contributions to copies of the involved components (the
    // old instances may be shared with clones and the store), or append
    // the repair/choice product's new components. A combined answer is
    // certain rows alone.
    certain_.PutRelation(name,
                         Table(dec->schema, std::move(dec->certain_rows)));
    for (size_t k = 0; k < dec->factors.size(); ++k) {
      DecomposedAnswer::Factor& factor = dec->factors[k];
      const bool attach = k < dec->component_indices.size();
      Component comp =
          attach ? *components_[dec->component_indices[k]] : Component();
      comp.alternatives.resize(factor.size());
      for (size_t j = 0; j < factor.size(); ++j) {
        comp.alternatives[j].probability = factor[j].probability;
        comp.alternatives[j].tuples[lower] = std::move(factor[j].rows);
      }
      if (attach) {
        components_[dec->component_indices[k]] =
            ShareComponent(std::move(comp));
      } else {
        components_.push_back(ShareComponent(std::move(comp)));
      }
    }
    return Status::OK();
  }
  MAYBMS_ASSIGN_OR_RETURN(
      PipelineResult result,
      RunPipeline(stmt, relevant, name, std::numeric_limits<size_t>::max()));
  const bool collapsed = stmt.quantifier != sql::WorldQuantifier::kNone &&
                         !stmt.group_worlds_by;
  const bool one_world = relevant.empty() && !stmt.repair.has_value() &&
                         !stmt.choice.has_value();
  // Without an assert a quantifier keeps every world, and a single world
  // is certain: either way the answer belongs to the certain core.
  if (collapsed && !stmt.assert_condition) {
    certain_.PutRelation(name, std::move(*result.combined));
    return Status::OK();
  }
  if (one_world) {
    certain_.PutRelation(name, result.worlds.front().answer);
    return Status::OK();
  }
  // Otherwise the survivors replace the relevant components with one
  // component, at their renormalized probabilities, each carrying its
  // answer unless a quantifier collapsed that into the certain core.
  Table certain_part =
      collapsed ? std::move(*result.combined)
                : Table(result.worlds.empty()
                            ? Schema()
                            : result.worlds.front().answer->schema());
  MAYBMS_RETURN_NOT_OK(
      ReplaceComponents(relevant, result.worlds, lower, !collapsed));
  certain_.PutRelation(name, std::move(certain_part));
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
