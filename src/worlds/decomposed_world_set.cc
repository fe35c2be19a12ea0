#include "worlds/decomposed_world_set.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <random>
#include <utility>

#include "base/dcheck.h"
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

/// One row-local scan of a statement: a relation read row by row, each
/// row kept or not by a WHERE clause that reads that row alone.
struct Scan {
  std::string relation;         // lower-case
  const Table* core = nullptr;  // the relation's certain core
  Schema qualified;             // its schema under the statement's alias
  const sql::Expr* where = nullptr;
};

/// The scan of `stmt`'s one FROM item; its WHERE is set by the caller.
Result<Scan> MakeScan(const Database& certain,
                      const sql::SelectStatement& stmt) {
  Scan scan;
  scan.relation = AsciiToLower(stmt.from[0].table_name);
  MAYBMS_ASSIGN_OR_RETURN(scan.core, certain.GetRelation(scan.relation));
  scan.qualified =
      scan.core->schema().WithQualifier(stmt.from[0].effective_alias());
  return scan;
}

/// The alternatives a pass visits, numbered flat: 0 is the certain core,
/// then the alternatives of each part (relevant component) in order.
class FlatAlternatives {
 public:
  explicit FlatAlternatives(const std::vector<const Component*>& parts) {
    offsets_.reserve(parts.size() + 2);
    offsets_.push_back(0);
    offsets_.push_back(1);
    for (const Component* part : parts) {
      offsets_.push_back(offsets_.back() + part->size());
    }
  }

  size_t size() const { return offsets_.back(); }
  /// The number of alternative `j` of part `k`.
  size_t Of(size_t k, size_t j) const { return offsets_[k + 1] + j; }
  /// The part and the index within it of alternative `a` (> 0). A
  /// caller that walks alternatives in order passes the part it found
  /// last as `hint`, which makes the walk linear.
  std::pair<size_t, size_t> Locate(size_t a, size_t hint) const {
    size_t k = hint;
    if (a >= offsets_[k + 2] && k + 3 < offsets_.size() &&
        a < offsets_[k + 3]) {
      ++k;  // the next part
    } else if (a < offsets_[k + 1] || a >= offsets_[k + 2]) {
      k = static_cast<size_t>(
          std::upper_bound(offsets_.begin() + 1, offsets_.end(), a) -
          offsets_.begin() - 2);
    }
    return {k, a - offsets_[k + 1]};
  }

 private:
  std::vector<size_t> offsets_;  // [k + 1]: part k's first; back(): total
};

/// Calls `visit(a, alt, slot)` for every alternative a pass visits,
/// numbered flat (FlatAlternatives): the certain core first (a = 0, `alt`
/// null), on the calling thread, then the alternatives of `parts`, split
/// into tasks on the thread pool, a component's alternatives too, so one
/// wide component is not one serial task. Polls once per alternative;
/// `slot` indexes per-thread state (base/thread_pool.h rule 3). Errors
/// are ParallelFor's: the first by alternative, so by component and then
/// by alternative.
using AlternativeBody =
    std::function<Status(size_t a, const Alternative* alt, size_t slot)>;

Status ForEachAlternative(const std::vector<const Component*>& parts,
                          const FlatAlternatives& flat, size_t threads,
                          const AlternativeBody& visit) {
  base::ThreadPool& pool = base::ThreadPool::Shared();
  // The part of each slot's last alternative, written at every
  // alternative: one cache line per slot, so that threads do not share
  // lines.
  struct alignas(64) Hint {
    size_t part = 0;
  };
  std::vector<Hint> hints(pool.Slots(threads));
  MAYBMS_RETURN_NOT_OK(visit(0, nullptr, 0));
  return pool.ParallelFor(
      flat.size() - 1, threads, [&](size_t t, size_t slot, size_t) -> Status {
        MAYBMS_RETURN_NOT_OK(base::GovernPoll());
        const auto [k, j] = flat.Locate(t + 1, hints[slot].part);
        hints[slot].part = k;
        return visit(t + 1, &parts[k]->alternatives[j], slot);
      });
}

/// Receives the rows of one alternative that a scan keeps: `scan` indexes
/// the pass's scans, `alt` is the alternative's flat number, and `slot`
/// indexes per-thread state (base/thread_pool.h rule 3).
using AlternativeVisitor = std::function<Status(
    size_t scan, size_t alt, const std::vector<Tuple>& rows, size_t slot)>;

/// The one pass of the row-local route: every scan of `scans` over the
/// certain core, then over every alternative of `parts`
/// (ForEachAlternative). Per alternative each scan in order filters the
/// alternative's rows of its relation and hands the kept ones (empty if
/// none) to `visit`. Row-local scans admit no subqueries, so the per-slot
/// subquery caches are a formality of the evaluation context.
Status ScanAlternatives(const Database& certain, const std::vector<Scan>& scans,
                        const std::vector<const Component*>& parts,
                        const FlatAlternatives& flat, size_t threads,
                        const AlternativeVisitor& visit) {
  struct alignas(64) Slot {
    engine::SubqueryCache cache;
    std::vector<Tuple> kept;
  };
  std::vector<Slot> slots(base::ThreadPool::Shared().Slots(threads));
  const std::vector<Tuple> none;
  return ForEachAlternative(
      parts, flat, threads,
      [&](size_t a, const Alternative* alt, size_t slot) -> Status {
        for (size_t s = 0; s < scans.size(); ++s) {
          const Scan& scan = scans[s];
          const std::vector<Tuple>* rows =
              alt == nullptr ? &scan.core->rows()
                             : alt->TuplesFor(scan.relation);
          if (rows != nullptr) {
            MAYBMS_ASSIGN_OR_RETURN(
                rows, FilterRows(scan.where,
                                 {&certain, &scan.qualified, nullptr, nullptr,
                                  nullptr, &slots[slot].cache},
                                 *rows, &slots[slot].kept));
          }
          MAYBMS_RETURN_NOT_OK(
              visit(s, a, rows == nullptr ? none : *rows, slot));
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

/// What the row-local route makes of a statement's own scan, world
/// operations aside. The statement must read one relation row by row: one
/// FROM item, no join (a self-join correlates tuples), set operation,
/// DISTINCT, GROUP BY, HAVING, ORDER BY or LIMIT, and a WHERE clause
/// without subqueries or aggregates. Its select list then makes it
///  * a slice: items without subqueries or aggregates; or
///  * an aggregate: exactly one `count(*)`, `count(col)` or `sum(col)`.
///    Summing also needs the column to be declared INTEGER (ResolveFold).
enum class RowLocal { kNone, kSlice, kAggregate };

RowLocal ClassifyScan(const sql::SelectStatement& stmt) {
  if (stmt.from.size() != 1 || !stmt.joins.empty() || stmt.union_next ||
      stmt.distinct || !stmt.group_by.empty() || stmt.having ||
      !stmt.order_by.empty() || stmt.limit.has_value() ||
      (stmt.where && (engine::ContainsSubquery(*stmt.where) ||
                      engine::ContainsAggregate(*stmt.where)))) {
    return RowLocal::kNone;
  }
  const auto plain = [](const sql::SelectItem& item) {
    return item.star || (!engine::ContainsSubquery(*item.expr) &&
                         !engine::ContainsAggregate(*item.expr));
  };
  if (std::all_of(stmt.items.begin(), stmt.items.end(), plain)) {
    return RowLocal::kSlice;
  }
  if (stmt.items.size() != 1 ||
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

/// The enumeration-free row-local route of a statement that references
/// the relations `referenced`: a slice under any quantifier, or a
/// possible/certain aggregate, over one relation.
RowLocal ClassifyRowLocal(const sql::SelectStatement& stmt,
                          const std::set<std::string>& referenced) {
  if (referenced.size() != 1) return RowLocal::kNone;
  const RowLocal route = ClassifyScan(stmt);
  if (route == RowLocal::kAggregate &&
      stmt.quantifier != sql::WorldQuantifier::kPossible &&
      stmt.quantifier != sql::WorldQuantifier::kCertain) {
    return RowLocal::kNone;
  }
  return route;
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

/// A count(*), count(col) or sum(col) item, resolved against its scan.
struct Fold {
  bool sum = false;
  std::optional<size_t> column;  // none: count(*)
};

/// The fold of an aggregate scan's item over `qualified`; nullopt for a
/// sum over a column not declared INTEGER, which the summaries leave to
/// SQL.
Result<std::optional<Fold>> ResolveFold(const sql::SelectStatement& stmt,
                                        const Schema& qualified) {
  const auto& call =
      static_cast<const sql::FunctionCallExpr&>(*stmt.items[0].expr);
  Fold fold;
  fold.sum = call.name == "sum";
  if (!call.star) {
    const auto& ref = static_cast<const sql::ColumnRefExpr&>(*call.args[0]);
    MAYBMS_ASSIGN_OR_RETURN(fold.column,
                            qualified.FindColumn(ref.name, ref.qualifier));
    if (fold.sum && qualified.column(*fold.column).type != DataType::kInteger) {
      return std::optional<Fold>();
    }
  }
  return std::optional<Fold>(fold);
}

/// The value `fold` takes over `rows`, one alternative of a part (or the
/// certain core): a count's number of rows (count(*)) or of non-NULL
/// column values, or a sum of the column's non-NULL values, unset for a
/// sum without one (its NULL). False where summaries do not apply: a
/// non-INTEGER sum input or int64 overflow.
bool FoldRows(const Fold& fold, const std::vector<Tuple>& rows,
              std::optional<int64_t>* value) {
  int64_t total = 0;
  bool non_null = !fold.sum;  // a count is never NULL
  for (const Tuple& row : rows) {
    int64_t term = 1;
    if (fold.column.has_value()) {
      const Value& v = row.value(*fold.column);
      if (v.is_null()) continue;
      if (fold.sum) {
        if (v.type() != DataType::kInteger) return false;
        term = v.AsInteger();
      }
    }
    non_null = true;
    if (__builtin_add_overflow(total, term, &total)) return false;
  }
  value->reset();
  if (non_null) *value = total;
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

/// The values count(*), count(col) or sum(col) over one uncertain
/// relation takes in some world, without enumerating worlds: sets `*rows`
/// to them, one row each, NULL first and then ascending (the combiner's
/// order), given `parts`, the values of the certain core (first) and of
/// each relevant component's alternatives. Components are independent,
/// so the set of per-world values is the sumset of the parts' values,
/// added to the Support in component order. No world is decoded, so
/// nothing is charged to the world budget or the world cap; with
/// `charge`, the support's bytes are charged to the memory budget as it
/// grows.
///
/// Returns false on a component without alternatives, int64 overflow or
/// a support larger than `max_support`. Governance verdicts propagate.
Result<bool> AggregateSupport(std::vector<PartValues> parts,
                              uint64_t max_support, bool charge,
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
    if (charge && support.size() > charged) {
      MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(
          base::EstimateTableBytes(support.size() - charged, 1)));
      charged = support.size();
    }
  }
  *rows = support.Rows();
  return true;
}

/// The values of the certain core (first) and of each part, from a fold's
/// per-alternative `values` numbered flat.
std::vector<PartValues> PartValuesOf(
    const std::vector<std::optional<int64_t>>& values,
    const std::vector<const Component*>& parts, const FlatAlternatives& flat) {
  std::vector<PartValues> part_values(parts.size() + 1);
  const auto add = [&](size_t part, size_t a) {
    if (values[a].has_value()) {
      part_values[part].values.push_back(*values[a]);
    } else {
      part_values[part].null = true;
    }
  };
  add(0, 0);
  for (size_t k = 0; k < parts.size(); ++k) {
    for (size_t j = 0; j < parts[k]->size(); ++j) add(k + 1, flat.Of(k, j));
  }
  return part_values;
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

/// What one row-local scan gives the certain core (alternative 0) and
/// each alternative, numbered flat: a slice's projected kept rows, or an
/// aggregate's count or sum.
struct ScanSummary {
  Schema schema;                               // the scan's answer
  std::optional<Fold> fold;                    // set: an aggregate
  std::vector<std::vector<Tuple>> rows;        // a slice
  std::vector<std::optional<int64_t>> values;  // an aggregate
};

/// Summarizes the scans `scans` of the row-local queries `queries` in one
/// pass (ScanAlternatives) into `summaries`, whose folds the caller sets:
/// an aggregate folds each alternative's kept rows (FoldRows); a slice
/// projects them, only where it kept some, through one projection per
/// slot (base/thread_pool.h rule 3), slot 0's prepared before any row is
/// filtered so that preparation errors come first; it sets the slice's
/// schema. With `charge`, each component alternative's projected rows are
/// charged to the memory budget. A fold that refuses fails the pass with
/// kUnsupported.
Status SummarizeScans(const Database& certain,
                      const std::vector<const sql::SelectStatement*>& queries,
                      const std::vector<Scan>& scans,
                      const std::vector<const Component*>& parts,
                      const FlatAlternatives& flat, size_t threads,
                      bool charge, std::vector<ScanSummary>* summaries) {
  const size_t slots = base::ThreadPool::Shared().Slots(threads);
  std::vector<std::vector<std::optional<engine::PreparedProjection>>>
      projections(scans.size());
  for (size_t s = 0; s < scans.size(); ++s) {
    ScanSummary& summary = (*summaries)[s];
    if (summary.fold.has_value()) {
      summary.values.resize(flat.size());
      continue;
    }
    summary.rows.resize(flat.size());
    projections[s].resize(slots);
    MAYBMS_ASSIGN_OR_RETURN(projections[s][0],
                            engine::PreparedProjection::Prepare(
                                *queries[s], certain, scans[s].qualified));
    summary.schema = projections[s][0]->output_schema();
  }
  return ScanAlternatives(
      certain, scans, parts, flat, threads,
      [&](size_t s, size_t a, const std::vector<Tuple>& rows,
          size_t slot) -> Status {
        ScanSummary& summary = (*summaries)[s];
        if (summary.fold.has_value()) {
          if (FoldRows(*summary.fold, rows, &summary.values[a])) {
            return Status::OK();
          }
          return Status::Unsupported("outside the summaries");
        }
        if (rows.empty()) return Status::OK();
        std::optional<engine::PreparedProjection>& projection =
            projections[s][slot];
        if (!projection.has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              projection, engine::PreparedProjection::Prepare(
                              *queries[s], certain, scans[s].qualified));
        }
        MAYBMS_ASSIGN_OR_RETURN(summary.rows[a],
                                projection->ProjectRows(certain, rows));
        if (!charge || a == 0) return Status::OK();
        return base::GovernChargeBytes(base::EstimateTableBytes(
            summary.rows[a].size(), summary.schema.num_columns()));
      });
}

/// A failed pass that summaries do not report: a governance verdict
/// poisons the statement's context and is reported; anything else is
/// SQL's to report or decide, so the caller falls back.
Status GovernanceVerdict() {
  const base::QueryContext* context = base::CurrentQueryContext();
  if (context != nullptr && context->cancelled()) return base::GovernPoll();
  return Status::OK();
}

/// The row-local route over one uncertain relation (see RowLocal): one
/// setup, then one pass over the certain core and the relevant components
/// (SummarizeScans) that summarizes each alternative's kept rows
///  * for a slice, as the rows it adds to the answer, projected. Under a
///    quantifier only the components that kept a row get a factor (the
///    closed forms ignore the others); a quantifier-free statement lists
///    worlds or attaches rows, so every relevant component gets one;
///  * for an aggregate, as the value it gives count/sum, which
///    AggregateSupport adds up per component.
/// The aggregate returns nullopt, leaving the statement to the pipeline,
/// on anything the pipeline must report or decide: an evaluation error in
/// any row (the pipeline reports the first failing world's), a
/// non-INTEGER sum input, or where AggregateSupport does not apply.
Result<std::optional<DecomposedAnswer>> RowLocalAnswer(
    const Database& certain, const std::vector<ComponentHandle>& components,
    const sql::SelectStatement& stmt, RowLocal route,
    const std::vector<size_t>& relevant, size_t threads,
    uint64_t max_support) {
  std::optional<DecomposedAnswer> none;
  MAYBMS_ASSIGN_OR_RETURN(Scan scan, MakeScan(certain, stmt));
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  scan.where = core->where.get();
  std::vector<const Component*> parts;
  for (size_t i : relevant) parts.push_back(components[i].get());
  const FlatAlternatives flat(parts);
  std::vector<ScanSummary> summaries(1);
  ScanSummary& summary = summaries[0];
  const bool slice = route == RowLocal::kSlice;
  if (!slice) {
    MAYBMS_ASSIGN_OR_RETURN(engine::PreparedSelect plan,
                            engine::PreparedSelect::Prepare(*core, certain));
    summary.schema = plan.output_schema();
    MAYBMS_ASSIGN_OR_RETURN(summary.fold, ResolveFold(*core, scan.qualified));
    if (!summary.fold.has_value()) return none;
  }
  const Status pass = SummarizeScans(certain, {core.get()}, {scan}, parts,
                                     flat, threads, slice, &summaries);
  DecomposedAnswer answer;
  answer.schema = summary.schema;
  if (!slice) {
    if (!pass.ok()) {
      MAYBMS_RETURN_NOT_OK(GovernanceVerdict());
      return none;
    }
    // possible answers the support; certain its one value, if it has one.
    MAYBMS_ASSIGN_OR_RETURN(
        const bool answered,
        AggregateSupport(PartValuesOf(summary.values, parts, flat),
                         max_support, true, &answer.certain_rows));
    if (!answered) return none;
    if (stmt.quantifier == sql::WorldQuantifier::kCertain &&
        answer.certain_rows.size() != 1) {
      answer.certain_rows.clear();
    }
    return std::optional<DecomposedAnswer>(std::move(answer));
  }
  MAYBMS_RETURN_NOT_OK(pass);
  std::vector<std::vector<Tuple>>& projected = summary.rows;
  answer.certain_rows = std::move(projected[0]);
  const bool dense = stmt.quantifier == sql::WorldQuantifier::kNone;
  for (size_t k = 0; k < parts.size(); ++k) {
    const Component& component = *parts[k];
    bool kept = dense;
    for (size_t j = 0; j < component.size() && !kept; ++j) {
      kept = !projected[flat.Of(k, j)].empty();
    }
    if (!kept) continue;
    DecomposedAnswer::Factor factor(component.size());
    for (size_t j = 0; j < component.size(); ++j) {
      factor[j].probability = component.alternatives[j].probability;
      factor[j].rows = std::move(projected[flat.Of(k, j)]);
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
/// `referenced` are the relations the statement references, `uncertain`
/// whether some component contributes to them, and `relevant` the
/// components it reads (RelevantComponents). Returns nullopt when the
/// statement must run through the pipeline — as one that references no
/// uncertain relation does, over one world, the certain core.
Result<std::optional<DecomposedAnswer>> Shortcut(
    const Database& certain, const std::vector<ComponentHandle>& components,
    const sql::SelectStatement& stmt, const std::set<std::string>& referenced,
    bool uncertain, const std::vector<size_t>& relevant, size_t threads,
    uint64_t max_support) {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  std::optional<DecomposedAnswer> answer;
  if (stmt.assert_condition || stmt.group_worlds_by) return answer;
  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    if (uncertain) return answer;
    MAYBMS_ASSIGN_OR_RETURN(answer, CleanProduct(certain, stmt));
  } else {
    if (!uncertain) return answer;  // the pipeline's one world
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

/// True if `stmt`, which references the relations `referenced`, may
/// leave out the components its WHERE clauses rule out (RowRelevance)
/// with its answer unchanged bit for bit:
///  * a slice under a quantifier: a component that keeps no rows gets no
///    factor anyway;
///  * a possible/certain count or sum: a component that keeps no rows
///    adds the sumset's identity (a count's 0, a sum's empty sum);
///  * any other possible/certain statement through the pipeline: each
///    world of the narrowed product stands for a block of full worlds
///    with the same answer, so the sets of answers are the same.
/// Not a quantifier-free listing (every relevant component is a factor),
/// conf through the pipeline (its probabilities would be summed in
/// another order), assert, GROUP WORLDS BY or repair/choice.
bool NarrowsByRanges(const sql::SelectStatement& stmt,
                     const std::set<std::string>& referenced) {
  if (stmt.assert_condition || stmt.group_worlds_by ||
      stmt.repair.has_value() || stmt.choice.has_value()) {
    return false;
  }
  switch (stmt.quantifier) {
    case sql::WorldQuantifier::kPossible:
    case sql::WorldQuantifier::kCertain:
      return true;
    case sql::WorldQuantifier::kConf:
      return ClassifyRowLocal(stmt, referenced) == RowLocal::kSlice;
    default:
      return false;
  }
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
      for (const auto& [relation, ranges] : part->ranges) {
        relations.insert(relation);
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

/// One scan's summaries as the pipeline's sinks take them, for
/// alternatives numbered flat (FlatAlternatives):
///  * a slice's projected rows as ids into `rows`, the distinct rows it
///    answers in any world, numbered in the tuple total order; alternative
///    a answers ids[offsets[a] .. offsets[a + 1]), in its row order;
///  * a fold's value per alternative. A world's total adds them up; as a
///    row it is numbered in `rows`, the support of the totals
///    (AggregateSupport): NULL first (id 0) if some world's total is NULL,
///    then `support`, the other values ascending. The assert's count of
///    kept rows is a fold without rows.
struct NumberedScan {
  RowDictionary rows;
  std::vector<uint32_t> ids;
  std::vector<size_t> offsets;
  bool fold = false;
  std::vector<std::optional<int64_t>> values;
  std::vector<int64_t> support;
};

/// True if the equal rows `a` and `b` are also written alike: the same
/// types, and reals with the same bits. (Integer(1) equals Real(1.0), and
/// -0.0 equals 0.0, but a combiner answers a row as the first world that
/// holds it wrote it.)
bool SameRepresentation(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    const Value& x = a.value(i);
    const Value& y = b.value(i);
    if (x.type() != y.type()) return false;
    if (x.type() == DataType::kReal &&
        std::bit_cast<uint64_t>(x.AsReal()) !=
            std::bit_cast<uint64_t>(y.AsReal())) {
      return false;
    }
  }
  return true;
}

/// Numbers a slice's projected rows, moved out of `projected` (per flat
/// alternative), into `out`. False if there are more rows than ids, or if
/// two equal rows are written differently: an id stands for one written
/// row, so such a slice is left to SQL.
bool NumberSlice(std::vector<std::vector<Tuple>>* projected,
                 NumberedScan* out) {
  std::vector<Tuple*> all;
  out->offsets.assign(1, 0);
  for (std::vector<Tuple>& rows : *projected) {
    for (Tuple& row : rows) all.push_back(&row);
    out->offsets.push_back(all.size());
  }
  if (all.size() >= UINT32_MAX) return false;
  std::vector<uint32_t> order(all.size());
  for (uint32_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return *all[a] < *all[b]; });
  std::vector<Tuple>& dictionary = out->rows.rows;
  out->ids.resize(all.size());
  for (uint32_t r : order) {
    if (dictionary.empty() || dictionary.back() < *all[r]) {
      dictionary.push_back(std::move(*all[r]));
    } else if (!SameRepresentation(dictionary.back(), *all[r])) {
      return false;
    }
    out->ids[r] = static_cast<uint32_t>(dictionary.size() - 1);
  }
  projected->clear();
  return true;
}

/// Numbers a fold's totals over the worlds of `parts` into `out` (its
/// values are moved out of `values`). False where AggregateSupport is.
Result<bool> NumberFold(std::vector<std::optional<int64_t>>* values,
                        const std::vector<const Component*>& parts,
                        const FlatAlternatives& flat, NumberedScan* out) {
  MAYBMS_ASSIGN_OR_RETURN(
      const bool numbered,
      AggregateSupport(PartValuesOf(*values, parts, flat),
                       std::numeric_limits<uint64_t>::max(), false,
                       &out->rows.rows));
  if (!numbered) return false;
  out->fold = true;
  out->values = std::move(*values);
  for (const Tuple& row : out->rows.rows) {
    if (!row.value(0).is_null()) out->support.push_back(row.value(0).AsInteger());
  }
  return true;
}

/// The outcomes of the worlds of a sub-product, assembled from the
/// summaries of one pass (Summarize) instead of running SQL in each
/// world. World i decodes its alternatives as SubProductSource::Get does
/// (ChooseAlternatives, so the same probability), and each scan adds up
/// what the certain core and the chosen alternatives give it: a slice
/// concatenates their row ids in part order, the order in which the
/// world's relation holds the rows; a count or sum adds their values,
/// wrapping on int64 overflow as SQL's sum does, and answers the total's
/// id. The assert keeps the world when its count is nonzero (zero,
/// negated). A world costs its decode and a few integer updates.
class ScanSummaries final : public WorldSummaries {
 public:
  ScanSummaries(std::vector<const Component*> parts, NumberedScan main,
                std::optional<NumberedScan> assert_count, bool negated,
                std::optional<NumberedScan> key)
      : parts_(std::move(parts)),
        flat_(parts_),
        main_(std::move(main)),
        assert_count_(std::move(assert_count)),
        negated_(negated),
        key_(std::move(key)) {}

  const RowDictionary& answers() const override { return main_.rows; }
  const RowDictionary* keys() const override {
    return key_.has_value() ? &key_->rows : nullptr;
  }

  Status Assemble(size_t i, WorldScratch* scratch,
                  WorldSummary* out) const override {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    out->probability = ChooseAlternatives(parts_, i, &scratch->chosen);
    const std::vector<const Alternative*>& chosen = scratch->chosen;
    Ids(main_, chosen, &out->answer);
    out->kept = !assert_count_.has_value() ||
                (Total(*assert_count_, chosen).value_or(0) != 0) != negated_;
    out->key.clear();
    if (key_.has_value() && out->kept) Ids(*key_, chosen, &out->key);
    return Status::OK();
  }

 private:
  /// The flat number of the alternative chosen for part `k`.
  size_t Chosen(const std::vector<const Alternative*>& chosen,
                size_t k) const {
    return flat_.Of(
        k, static_cast<size_t>(chosen[k] - parts_[k]->alternatives.data()));
  }

  /// A fold's value in the world: unset (NULL) while no part has one.
  std::optional<int64_t> Total(
      const NumberedScan& scan,
      const std::vector<const Alternative*>& chosen) const {
    std::optional<int64_t> total = scan.values[0];
    for (size_t k = 0; k < chosen.size(); ++k) {
      const std::optional<int64_t>& value = scan.values[Chosen(chosen, k)];
      if (!value.has_value()) continue;
      total = static_cast<int64_t>(static_cast<uint64_t>(total.value_or(0)) +
                                   static_cast<uint64_t>(*value));
    }
    return total;
  }

  /// The ids of the scan's answer in the world, into `ids`.
  void Ids(const NumberedScan& scan,
           const std::vector<const Alternative*>& chosen,
           std::vector<uint32_t>* ids) const {
    ids->clear();
    if (scan.fold) {
      // Every total is in the support; NULL is id 0.
      const std::optional<int64_t> total = Total(scan, chosen);
      const size_t null = scan.support.size() < scan.rows.rows.size() ? 1 : 0;
      ids->push_back(static_cast<uint32_t>(
          !total.has_value()
              ? 0
              : null + static_cast<size_t>(
                           std::lower_bound(scan.support.begin(),
                                            scan.support.end(), *total) -
                           scan.support.begin())));
      return;
    }
    const auto append = [&](size_t a) {
      ids->insert(ids->end(),
                  scan.ids.begin() + static_cast<long>(scan.offsets[a]),
                  scan.ids.begin() + static_cast<long>(scan.offsets[a + 1]));
    };
    append(0);
    for (size_t k = 0; k < chosen.size(); ++k) append(Chosen(chosen, k));
  }

  std::vector<const Component*> parts_;
  FlatAlternatives flat_;
  NumberedScan main_;
  std::optional<NumberedScan> assert_count_;
  bool negated_;
  std::optional<NumberedScan> key_;
};

/// The subquery of an assert condition `[not] exists (subquery)`, under
/// any number of NOTs, and whether the condition negates it; null for
/// any other condition.
const sql::SelectStatement* AssertedExists(const sql::Expr& condition,
                                           bool* negated) {
  const sql::Expr* expr = &condition;
  *negated = false;
  while (expr->kind == sql::ExprKind::kUnary &&
         static_cast<const sql::UnaryExpr&>(*expr).op == sql::UnaryOp::kNot) {
    *negated = !*negated;
    expr = static_cast<const sql::UnaryExpr&>(*expr).operand.get();
  }
  if (expr->kind != sql::ExprKind::kExists) return nullptr;
  const auto& exists = static_cast<const sql::ExistsExpr&>(*expr);
  *negated = *negated != exists.negated;
  return exists.subquery.get();
}

/// The statements whose worlds the pipeline assembles from summaries
/// (ScanSummaries) instead of running SQL in them: no repair/choice, and
/// every scan is row-local (ClassifyScan) over a relation of the
/// world-set that is not the statement's result `result_name` — the main
/// query, the subquery of an `assert [not] exists (...)`, and the GROUP
/// WORLDS BY query. The assert's subquery is a slice whose items are `*`
/// or columns of its relation, which cannot fail, so its WHERE alone
/// decides the verdict. A sum's column must be INTEGER.
///
/// One pass (SummarizeScans) summarizes every scan for every alternative
/// of `parts`; the answer's and the key's rows are then numbered
/// (NumberSlice, NumberFold). Returns null, leaving the statement to SQL
/// in every world, outside the class, on any preparation or evaluation
/// error (SQL reports the first failing world's, or no error when the
/// failing rows are in worlds an assert drops before the grouping query
/// runs), and where a fold or the numbering refuses. Governance verdicts
/// propagate.
Result<std::unique_ptr<ScanSummaries>> Summarize(
    const Database& certain, std::vector<const Component*> parts,
    const sql::SelectStatement& stmt, const std::string& result_name,
    size_t threads) {
  std::unique_ptr<ScanSummaries> none;
  if (stmt.repair.has_value() || stmt.choice.has_value()) return none;
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  // The scans: the main query, then the assert's, then the key's.
  std::vector<const sql::SelectStatement*> queries = {core.get()};
  bool negated = false;
  const sql::SelectStatement* exists = nullptr;
  if (stmt.assert_condition) {
    exists = AssertedExists(*stmt.assert_condition, &negated);
    if (exists == nullptr) return none;
    queries.push_back(exists);
  }
  if (stmt.group_worlds_by) queries.push_back(stmt.group_worlds_by.get());
  const std::string result = AsciiToLower(result_name);
  std::vector<Scan> scans;
  std::vector<ScanSummary> summaries(queries.size());
  for (size_t s = 0; s < queries.size(); ++s) {
    const sql::SelectStatement& query = *queries[s];
    const RowLocal route = ClassifyScan(query);
    if (route == RowLocal::kNone ||
        query.quantifier != sql::WorldQuantifier::kNone ||
        query.repair.has_value() || query.choice.has_value() ||
        query.assert_condition || query.group_worlds_by) {
      return none;
    }
    Result<Scan> scan = MakeScan(certain, query);
    if (!scan.ok() || scan->relation == result) return none;
    Result<engine::PreparedSelect> plan =
        engine::PreparedSelect::Prepare(query, certain);
    if (!plan.ok()) return none;
    scan->where = query.where.get();
    ScanSummary& summary = summaries[s];
    summary.schema = plan->output_schema();
    if (&query == exists) {
      if (route != RowLocal::kSlice) return none;
      for (const sql::SelectItem& item : query.items) {
        if (item.star) continue;
        if (item.expr->kind != sql::ExprKind::kColumnRef) return none;
        const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
        if (!scan->qualified.FindColumn(ref.name, ref.qualifier).ok()) {
          return none;
        }
      }
      summary.fold = Fold();  // a count of the kept rows
    } else if (route == RowLocal::kAggregate) {
      Result<std::optional<Fold>> fold = ResolveFold(query, scan->qualified);
      if (!fold.ok() || !fold->has_value()) return none;
      summary.fold = **fold;
    }
    scans.push_back(std::move(*scan));
  }
  const FlatAlternatives flat(parts);
  const Status pass = SummarizeScans(certain, queries, scans, parts, flat,
                                     threads, false, &summaries);
  if (!pass.ok()) {
    MAYBMS_RETURN_NOT_OK(GovernanceVerdict());
    return none;
  }
  // Number the answer's and the key's rows; the assert needs its counts.
  std::vector<NumberedScan> numbered(summaries.size());
  for (size_t s = 0; s < summaries.size(); ++s) {
    ScanSummary& summary = summaries[s];
    NumberedScan& scan = numbered[s];
    scan.rows.schema = std::move(summary.schema);
    if (queries[s] == exists) {
      scan.fold = true;
      scan.values = std::move(summary.values);
      continue;
    }
    if (summary.fold.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(const bool folded,
                              NumberFold(&summary.values, parts, flat, &scan));
      if (!folded) return none;
    } else if (!NumberSlice(&summary.rows, &scan)) {
      return none;
    }
  }
  std::optional<NumberedScan> assert_count;
  std::optional<NumberedScan> key;
  if (stmt.group_worlds_by) {
    key = std::move(numbered.back());
    numbered.pop_back();
  }
  if (exists != nullptr) {
    assert_count = std::move(numbered.back());
    numbered.pop_back();
  }
  return std::make_unique<ScanSummaries>(std::move(parts),
                                         std::move(numbered[0]),
                                         std::move(assert_count), negated,
                                         std::move(key));
}

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
  // The new relation is certain: no component, so the index stays.
  certain_.PutRelation(name, prototype);
  return Status::OK();
}

Status DecomposedWorldSet::DropRelation(const std::string& name) {
  // Poll BEFORE any mutation: erasing contributions from a prefix of the
  // components and then aborting would tear the set.
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  MAYBMS_RETURN_NOT_OK(certain_.DropRelation(name));
  std::string lower = AsciiToLower(name);
  for (size_t i = 0; i < components_.size(); ++i) {
    bool keyed = false;
    for (const Alternative& alt : components_[i]->alternatives) {
      keyed = keyed || alt.tuples.count(lower) > 0;
    }
    if (!keyed) continue;
    // Copy-on-write: other clones and the store may share the instance.
    Component pruned = *components_[i];
    for (Alternative& alt : pruned.alternatives) alt.tuples.erase(lower);
    SetComponent(i, std::move(pruned));
  }
  return Status::OK();
}

std::vector<size_t> DecomposedWorldSet::ComponentsOf(
    const std::string& relation) const {
  return RelevantComponents({relation}, nullptr);
}

std::vector<size_t> DecomposedWorldSet::RelevantComponents(
    const std::set<std::string>& relations, const RowRelevance* rows) const {
  std::vector<size_t> indices;
  for (const std::string& relation : relations) {
    auto it = index_.find(relation);
    if (it == index_.end()) continue;
    const RangeTests* tests =
        rows == nullptr ? nullptr : rows->TestsFor(relation);
    const size_t n = indices.size();
    for (const Contributor& contributor : it->second) {
      MAYBMS_DCHECK(contributor.ranges.data() ==
                        components_[contributor.component]
                            ->RangesOf(relation)
                            ->data(),
                    "the index holds a replaced component's ranges");
      if (tests == nullptr || tests->MayKeep(contributor.ranges)) {
        indices.push_back(contributor.component);
      }
    }
    std::inplace_merge(indices.begin(), indices.begin() + static_cast<long>(n),
                       indices.end());
  }
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

void DecomposedWorldSet::IndexComponent(size_t i) {
  for (const auto& [relation, ranges] : components_[i]->ranges) {
    std::vector<Contributor>& contributors = index_[relation];
    const auto at = std::lower_bound(
        contributors.begin(), contributors.end(), i,
        [](const Contributor& c, size_t index) { return c.component < index; });
    if (at == contributors.end() || at->component != i) {
      contributors.insert(at, {i, ranges});
    } else {
      at->ranges = ranges;
    }
  }
}

void DecomposedWorldSet::SetComponent(size_t i, Component component) {
  ComponentHandle handle = ShareComponent(std::move(component));
  for (const auto& [relation, ranges] : components_[i]->ranges) {
    if (handle->RangesOf(relation) != nullptr) continue;
    std::vector<Contributor>& contributors = index_[relation];
    contributors.erase(std::find_if(
        contributors.begin(), contributors.end(),
        [i](const Contributor& c) { return c.component == i; }));
    if (contributors.empty()) index_.erase(relation);
  }
  components_[i] = std::move(handle);
  IndexComponent(i);
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
  // Drop the erased indices from the index, and shift each later one down
  // by the number erased before it.
  for (auto it = index_.begin(); it != index_.end();) {
    std::vector<Contributor> kept;
    for (const Contributor& c : it->second) {
      const auto below =
          std::lower_bound(relevant.begin(), relevant.end(), c.component);
      if (below != relevant.end() && *below == c.component) continue;
      const auto shift = static_cast<size_t>(below - relevant.begin());
      kept.push_back({c.component - shift, c.ranges});
    }
    if (kept.empty()) {
      it = index_.erase(it);
    } else {
      it->second = std::move(kept);
      ++it;
    }
  }
  IndexComponent(components_.size() - 1);
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

  std::vector<size_t> relevant = RelevantComponents(referenced, nullptr);
  if (relevant.empty()) {
    // All referenced relations are certain: apply once to the core.
    return plan.Execute(&certain_);
  }
  if (plan.row_local()) {
    MAYBMS_ASSIGN_OR_RETURN(const bool applied,
                            ApplyRowLocalDml(stmt, catalog, target, relevant,
                                             &plan));
    if (applied) return Status::OK();
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

Result<bool> DecomposedWorldSet::ApplyRowLocalDml(
    const sql::Statement& stmt, const Catalog& catalog,
    const std::string& target, const std::vector<size_t>& relevant,
    engine::PreparedDml* plan) {
  MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle core,
                          certain_.GetRelationHandle(target));
  if (stmt.kind == sql::StatementKind::kInsert) {
    // Every world gets the same new rows: the core takes them.
    Database db;
    db.PutRelation(target, core);
    if (!plan->Execute(&db).ok()) {
      MAYBMS_RETURN_NOT_OK(GovernanceVerdict());
      return false;
    }
    MAYBMS_ASSIGN_OR_RETURN(core, db.GetRelationHandle(target));
    certain_.PutRelation(target, std::move(core));
    return true;
  }
  // The new rows of every part the statement changed, by flat number
  // (0: the core). Slot 0 runs `plan`; other slots prepare their own.
  const std::string relation = AsciiToLower(target);
  const std::vector<const Component*> parts = Parts(relevant);
  const FlatAlternatives flat(parts);
  std::vector<std::optional<std::vector<Tuple>>> rewritten(flat.size());
  std::vector<std::optional<engine::PreparedDml>> plans(
      base::ThreadPool::Shared().Slots(threads_));
  const Status pass = ForEachAlternative(
      parts, flat, threads_,
      [&](size_t a, const Alternative* alt, size_t slot) -> Status {
        const std::vector<Tuple>* rows =
            alt == nullptr ? &core->rows() : alt->TuplesFor(relation);
        if (rows == nullptr) return Status::OK();
        engine::PreparedDml* local = plan;
        if (slot > 0) {
          if (!plans[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(
                plans[slot],
                engine::PreparedDml::Prepare(stmt, certain_, &catalog));
          }
          local = &*plans[slot];
        }
        std::vector<Tuple> out;
        MAYBMS_ASSIGN_OR_RETURN(const bool changed,
                                local->Rewrite(certain_, *rows, &out));
        if (changed) rewritten[a] = std::move(out);
        return Status::OK();
      });
  if (!pass.ok()) {
    MAYBMS_RETURN_NOT_OK(GovernanceVerdict());
    return false;
  }
  if (rewritten[0].has_value()) {
    certain_.PutRelation(target,
                         Table(core->schema(), std::move(*rewritten[0])));
  }
  // A changed component gets a new instance; the others keep theirs. An
  // alternative left without rows keeps its world.
  for (size_t k = 0; k < parts.size(); ++k) {
    std::optional<Component> changed;
    for (size_t j = 0; j < parts[k]->size(); ++j) {
      std::optional<std::vector<Tuple>>& rows = rewritten[flat.Of(k, j)];
      if (!rows.has_value()) continue;
      if (!changed.has_value()) changed = *parts[k];
      std::map<std::string, std::vector<Tuple>>& tuples =
          changed->alternatives[j].tuples;
      if (rows->empty()) {
        tuples.erase(relation);
      } else {
        tuples[relation] = std::move(*rows);
      }
    }
    if (changed.has_value()) SetComponent(relevant[k], std::move(*changed));
  }
  return true;
}

Result<PipelineResult> DecomposedWorldSet::RunPipeline(
    const sql::SelectStatement& stmt, const std::vector<size_t>& relevant,
    const std::string& result_name, size_t keep_worlds) const {
  const SubProductSource source(certain_, Parts(relevant));
  // Row-local statements get their worlds from one pass's summaries. A
  // sub-product above the world cap fails in the pipeline, unsummarized.
  std::unique_ptr<ScanSummaries> summaries;
  if (!relevant.empty() && source.size() <= max_worlds_) {
    MAYBMS_ASSIGN_OR_RETURN(
        summaries,
        Summarize(certain_, Parts(relevant), stmt, result_name, threads_));
  }
  return RunWorldPipeline(source, stmt,
                          {.result_name = result_name,
                           .keep_worlds = keep_worlds,
                           .threads = threads_,
                           .max_worlds = max_worlds_},
                          summaries.get());
}

std::vector<size_t> DecomposedWorldSet::SelectComponents(
    const sql::SelectStatement& stmt, const std::set<std::string>& referenced,
    bool* uncertain) const {
  *uncertain = std::any_of(
      referenced.begin(), referenced.end(),
      [&](const std::string& relation) { return index_.count(relation) > 0; });
  if (!*uncertain) return {};
  if (!NarrowsByRanges(stmt, referenced)) {
    return RelevantComponents(referenced, nullptr);
  }
  const RowRelevance rows(stmt, certain_);
  return RelevantComponents(referenced, &rows);
}

Result<SelectEvaluation> DecomposedWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  std::set<std::string> referenced;
  CollectReferencedRelations(stmt, &referenced);
  bool uncertain = false;
  const std::vector<size_t> relevant =
      SelectComponents(stmt, referenced, &uncertain);
  MAYBMS_ASSIGN_OR_RETURN(std::optional<DecomposedAnswer> dec,
                          Shortcut(certain_, components_, stmt, referenced,
                                   uncertain, relevant, threads_, max_worlds_));
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
  bool uncertain = false;
  const std::vector<size_t> relevant =
      SelectComponents(stmt, referenced, &uncertain);
  MAYBMS_ASSIGN_OR_RETURN(std::optional<DecomposedAnswer> dec,
                          Shortcut(certain_, components_, stmt, referenced,
                                   uncertain, relevant, threads_, max_worlds_));
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
        SetComponent(dec->component_indices[k], std::move(comp));
      } else {
        components_.push_back(ShareComponent(std::move(comp)));
        IndexComponent(components_.size() - 1);
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
  index_.clear();
  for (size_t i = 0; i < components_.size(); ++i) IndexComponent(i);
  return Status::OK();
}

}  // namespace maybms::worlds
