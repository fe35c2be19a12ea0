// Implementation of the prepared-statement layer (see prepared.h for the
// schema-only invariant). Preparation performs, once per statement, the
// work the executor previously redid in every world: conjunct
// classification against the combined FROM/JOIN schema, hash-join key
// extraction with static type checks, select-item resolution and output
// schema derivation, and ORDER BY key resolution. Execution performs only
// world-dependent work: scans, hash build/probe, residual and final-filter
// evaluation, grouping, and set-op combination.

#include "engine/prepared.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>

#include "base/string_util.h"
#include "engine/executor.h"
#include "engine/type_deriver.h"
#include "types/tuple.h"

namespace maybms::engine {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectStatement;

// ---------------------------------------------------------------------------
// Reference analysis (schema-level, preparation only)
// ---------------------------------------------------------------------------

/// What an expression references. Column refs inside nested subqueries are
/// not collected (their resolution is scoped to the subquery); the
/// presence of a subquery is reported instead.
struct RefScan {
  std::vector<const sql::ColumnRefExpr*> refs;
  bool has_subquery = false;
  bool has_aggregate = false;
};

void ScanRefsInto(const Expr& expr, RefScan* out) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      out->refs.push_back(static_cast<const sql::ColumnRefExpr*>(&expr));
      return;
    case ExprKind::kFunctionCall:
      if (IsAggregateFunction(
              static_cast<const sql::FunctionCallExpr&>(expr).name)) {
        out->has_aggregate = true;
      }
      break;
    case ExprKind::kInSubquery:
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
      out->has_subquery = true;
      break;
    default:
      break;
  }
  ForEachChildExpr(expr,
                   [out](const Expr& child) { ScanRefsInto(child, out); });
}

/// One FROM item or JOIN clause with its alias-qualified schema and column
/// range inside the combined (all-sources) schema.
struct SourceRel {
  sql::JoinKind kind = sql::JoinKind::kInner;
  const Expr* on = nullptr;  // JOIN ... ON predicate; null for comma items
  std::string relation;
  Schema schema;
  size_t col_begin = 0;
  size_t col_end = 0;
};

/// A predicate with the set of sources it references. `opaque` predicates
/// (subqueries, aggregates, ambiguous or unresolvable references) are
/// never moved: they evaluate exactly where the nested-loop pipeline
/// would have evaluated them.
struct ClassifiedPred {
  const Expr* expr = nullptr;
  uint64_t mask = 0;
  bool opaque = false;
};

ClassifiedPred Classify(const Expr& expr, const Schema& combined,
                        const std::vector<SourceRel>& sources,
                        const EvalContext* outer) {
  ClassifiedPred out;
  out.expr = &expr;
  RefScan scan;
  ScanRefsInto(expr, &scan);
  if (scan.has_subquery || scan.has_aggregate) {
    out.opaque = true;
    return out;
  }
  for (const sql::ColumnRefExpr* ref : scan.refs) {
    Result<size_t> idx = combined.FindColumn(ref->name, ref->qualifier);
    if (idx.ok()) {
      size_t source = 0;
      while (source < sources.size() &&
             (*idx < sources[source].col_begin ||
              *idx >= sources[source].col_end)) {
        ++source;
      }
      if (source >= 64 || source >= sources.size()) {
        out.opaque = true;
        return out;
      }
      out.mask |= uint64_t{1} << source;
      continue;
    }
    if (idx.status().code() != StatusCode::kNotFound) {
      out.opaque = true;  // ambiguous: the final filter reports the error
      return out;
    }
    // Not in the combined schema: references into the enclosing query's
    // rows are constants for this pipeline; anything else must stay in
    // the final filter so evaluation reports the unknown column there.
    bool found_outer = false;
    for (const EvalContext* c = outer; c != nullptr; c = c->outer) {
      if (c->schema != nullptr &&
          c->schema->HasColumn(ref->name, ref->qualifier)) {
        found_outer = true;
        break;
      }
    }
    if (!found_outer) {
      out.opaque = true;
      return out;
    }
  }
  return out;
}

struct EquiKey {
  const Expr* acc = nullptr;    // side over already-joined sources
  const Expr* right = nullptr;  // side over the incoming source
};

bool TryExtractEqui(const ClassifiedPred& pred, uint64_t present,
                    uint64_t bit_i, const Schema& combined,
                    const std::vector<SourceRel>& sources, const Database& db,
                    const EvalContext* outer, EquiKey* out) {
  if (pred.opaque || pred.expr->kind != ExprKind::kBinary) return false;
  const auto& b = static_cast<const sql::BinaryExpr&>(*pred.expr);
  if (b.op != sql::BinaryOp::kEquals) return false;
  ClassifiedPred left = Classify(*b.left, combined, sources, outer);
  ClassifiedPred right = Classify(*b.right, combined, sources, outer);
  if (left.opaque || right.opaque) return false;
  const Expr* acc_side = nullptr;
  const Expr* right_side = nullptr;
  if (left.mask != 0 && (left.mask & ~present) == 0 && right.mask != 0 &&
      (right.mask & ~bit_i) == 0) {
    acc_side = b.left.get();
    right_side = b.right.get();
  } else if (right.mask != 0 && (right.mask & ~present) == 0 &&
             left.mask != 0 && (left.mask & ~bit_i) == 0) {
    acc_side = b.right.get();
    right_side = b.left.get();
  } else {
    return false;
  }
  EvalContext type_ctx;
  type_ctx.db = &db;
  type_ctx.schema = &combined;
  type_ctx.outer = outer;
  if (!HashCompatible(DeriveExprType(*acc_side, type_ctx),
                      DeriveExprType(*right_side, type_ctx))) {
    return false;
  }
  out->acc = acc_side;
  out->right = right_side;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// PreparedFromWhere
// ---------------------------------------------------------------------------

Result<PreparedFromWhere> PreparedFromWhere::Prepare(
    const SelectStatement& stmt, const Database& schema_db,
    const EvalContext* outer) {
  PreparedFromWhere plan;

  std::vector<SourceRel> sources;
  sources.reserve(stmt.from.size() + stmt.joins.size());
  for (const sql::TableRef& ref : stmt.from) {
    MAYBMS_ASSIGN_OR_RETURN(const Table* table,
                            schema_db.GetRelation(ref.table_name));
    SourceRel src;
    src.relation = ref.table_name;
    src.schema = table->schema().WithQualifier(ref.effective_alias());
    sources.push_back(std::move(src));
  }
  for (const sql::JoinClause& join : stmt.joins) {
    MAYBMS_ASSIGN_OR_RETURN(const Table* table,
                            schema_db.GetRelation(join.table.table_name));
    SourceRel src;
    src.kind = join.kind;
    src.on = join.on.get();
    src.relation = join.table.table_name;
    src.schema = table->schema().WithQualifier(join.table.effective_alias());
    sources.push_back(std::move(src));
  }

  // Predicate-free single-table pipeline — the shape the world-set layer
  // evaluates once per world for repair/choice inputs and simple
  // aggregates — borrows the base table's rows; no per-world copy.
  if (sources.size() == 1 && stmt.where == nullptr && stmt.joins.empty()) {
    plan.passthrough_ = true;
    plan.passthrough_relation_ = std::move(sources[0].relation);
    plan.output_schema_ = std::move(sources[0].schema);
    return plan;
  }

  // The combined all-sources schema exists purely to classify predicates.
  Schema combined;
  for (SourceRel& src : sources) {
    src.col_begin = combined.num_columns();
    combined = Schema::Concat(combined, src.schema);
    src.col_end = combined.num_columns();
  }

  // Classify each WHERE conjunct once against the full schema (the schema
  // the predicate is resolved with), then apply it at the earliest join
  // stage that binds every source it references. Sources beyond the mask
  // width disable pushdown but not correctness (everything stays in the
  // final filter).
  const bool maskable = sources.size() <= 64;
  struct WherePred {
    ClassifiedPred pred;
    bool consumed = false;
  };
  std::vector<WherePred> where_preds;
  if (stmt.where != nullptr) {
    for (const Expr* e : SplitConjuncts(*stmt.where)) {
      WherePred w;
      w.pred = maskable ? Classify(*e, combined, sources, outer)
                        : ClassifiedPred{e, 0, true};
      where_preds.push_back(std::move(w));
    }
  }

  Schema acc_schema;
  uint64_t present = 0;
  plan.stages_.reserve(sources.size());

  for (size_t i = 0; i < sources.size(); ++i) {
    SourceRel& src = sources[i];
    const uint64_t bit_i = maskable ? uint64_t{1} << i : 0;
    const uint64_t with_i = present | bit_i;
    Stage stage;
    stage.left_join = src.kind == sql::JoinKind::kLeftOuter;
    stage.relation = src.relation;
    stage.acc_schema = acc_schema;
    stage.stage_schema = Schema::Concat(acc_schema, src.schema);

    // Predicates deciding matches at this stage: WHERE conjuncts that
    // become fully bound here (inner stages only — a WHERE filter over a
    // LEFT-joined source applies after padding), plus the ON conjuncts.
    std::vector<ClassifiedPred> stage_preds;
    if (!stage.left_join && bit_i != 0) {
      for (WherePred& w : where_preds) {
        if (w.consumed || w.pred.opaque) continue;
        if ((w.pred.mask & bit_i) == 0) continue;
        if ((w.pred.mask & ~with_i) != 0) continue;
        stage_preds.push_back(w.pred);
        w.consumed = true;
      }
    }
    if (src.on != nullptr) {
      for (const Expr* e : SplitConjuncts(*src.on)) {
        stage_preds.push_back(maskable ? Classify(*e, combined, sources, outer)
                                       : ClassifiedPred{e, 0, true});
      }
    }

    // Single-source predicates filter the incoming table's scan; equality
    // conjuncts between the two sides become hash keys; everything else is
    // a residual evaluated per candidate pair.
    for (const ClassifiedPred& p : stage_preds) {
      if (!p.opaque && p.mask != 0 && (p.mask & ~bit_i) == 0) {
        stage.scan_filters.push_back(p.expr);
        continue;
      }
      EquiKey eq;
      if (TryExtractEqui(p, present, bit_i, combined, sources, schema_db,
                         outer, &eq)) {
        stage.acc_keys.push_back(eq.acc);
        stage.right_keys.push_back(eq.right);
        continue;
      }
      stage.residuals.push_back(p.expr);
    }

    stage.schema = std::move(src.schema);
    acc_schema = stage.stage_schema;
    present = with_i;
    plan.stages_.push_back(std::move(stage));
  }

  for (const WherePred& w : where_preds) {
    if (!w.consumed) plan.final_filters_.push_back(w.pred.expr);
  }
  plan.output_schema_ = std::move(acc_schema);
  return plan;
}

Result<PreparedFromWhere::View> PreparedFromWhere::ExecuteView(
    const Database& db, const EvalContext* outer) {
  View view;
  if (passthrough_) {
    MAYBMS_ASSIGN_OR_RETURN(const Table* table,
                            db.GetRelation(passthrough_relation_));
    view.schema = &output_schema_;
    view.borrowed = &table->rows();
    return view;
  }

  std::vector<Tuple> acc_rows;
  acc_rows.emplace_back();

  for (const Stage& stage : stages_) {
    MAYBMS_ASSIGN_OR_RETURN(const Table* table, db.GetRelation(stage.relation));

    if (acc_rows.empty()) {
      // Nothing to join against (and nothing to pad): skip the stage work.
      continue;
    }

    std::vector<size_t> right_rows;
    right_rows.reserve(table->num_rows());
    for (size_t r = 0; r < table->num_rows(); ++r) {
      if (!stage.scan_filters.empty()) {
        EvalContext ctx{&db, &stage.schema, &table->row(r), outer, nullptr,
                        nullptr};
        MAYBMS_ASSIGN_OR_RETURN(bool pass, PassesAll(stage.scan_filters, ctx));
        if (!pass) continue;
      }
      right_rows.push_back(r);
    }

    std::vector<Tuple> next_rows;
    auto pad_row = [&stage](const Tuple& left) {
      Tuple padded = left;
      for (size_t c = 0; c < stage.schema.num_columns(); ++c) {
        padded.Append(Value::Null());
      }
      return padded;
    };

    if (stage.acc_keys.empty()) {
      // No usable equi conjunct: nested loop over the (scan-filtered)
      // pair space.
      for (const Tuple& left : acc_rows) {
        bool matched = false;
        for (size_t r : right_rows) {
          Tuple combined_row = Tuple::Concat(left, table->row(r));
          EvalContext ctx{&db, &stage.stage_schema, &combined_row, outer,
                          nullptr, nullptr};
          MAYBMS_ASSIGN_OR_RETURN(bool pass, PassesAll(stage.residuals, ctx));
          if (!pass) continue;
          matched = true;
          next_rows.push_back(std::move(combined_row));
        }
        if (!matched && stage.left_join) next_rows.push_back(pad_row(left));
      }
    } else if (acc_rows.size() <= right_rows.size()) {
      // Build the hash table on the accumulated (smaller) side, probe with
      // the incoming table; matches are buffered per accumulated row so
      // the output keeps the nested-loop order (left-major, right rows in
      // table order).
      JoinIndex index;
      index.reserve(acc_rows.size());
      for (size_t l = 0; l < acc_rows.size(); ++l) {
        EvalContext ctx{&db, &stage.acc_schema, &acc_rows[l], outer, nullptr,
                        nullptr};
        MAYBMS_ASSIGN_OR_RETURN(std::optional<Tuple> key,
                                EvalJoinKey(stage.acc_keys, ctx));
        if (key.has_value()) index[std::move(*key)].push_back(l);
      }
      std::vector<std::vector<Tuple>> by_left(acc_rows.size());
      for (size_t r : right_rows) {
        const Tuple& right = table->row(r);
        EvalContext ctx{&db, &stage.schema, &right, outer, nullptr, nullptr};
        MAYBMS_ASSIGN_OR_RETURN(std::optional<Tuple> key,
                                EvalJoinKey(stage.right_keys, ctx));
        if (!key.has_value()) continue;
        auto it = index.find(*key);
        if (it == index.end()) continue;
        for (size_t l : it->second) {
          Tuple combined_row = Tuple::Concat(acc_rows[l], right);
          EvalContext rctx{&db, &stage.stage_schema, &combined_row, outer,
                           nullptr, nullptr};
          MAYBMS_ASSIGN_OR_RETURN(bool pass, PassesAll(stage.residuals, rctx));
          if (pass) by_left[l].push_back(std::move(combined_row));
        }
      }
      for (size_t l = 0; l < acc_rows.size(); ++l) {
        if (by_left[l].empty()) {
          if (stage.left_join) next_rows.push_back(pad_row(acc_rows[l]));
          continue;
        }
        for (Tuple& t : by_left[l]) next_rows.push_back(std::move(t));
      }
    } else {
      // Build on the (smaller) incoming table, stream the accumulated
      // side; output is naturally left-major.
      JoinIndex index;
      index.reserve(right_rows.size());
      for (size_t r : right_rows) {
        EvalContext ctx{&db, &stage.schema, &table->row(r), outer, nullptr,
                        nullptr};
        MAYBMS_ASSIGN_OR_RETURN(std::optional<Tuple> key,
                                EvalJoinKey(stage.right_keys, ctx));
        if (key.has_value()) index[std::move(*key)].push_back(r);
      }
      for (const Tuple& left : acc_rows) {
        EvalContext lctx{&db, &stage.acc_schema, &left, outer, nullptr,
                         nullptr};
        MAYBMS_ASSIGN_OR_RETURN(std::optional<Tuple> key,
                                EvalJoinKey(stage.acc_keys, lctx));
        bool matched = false;
        if (key.has_value()) {
          auto it = index.find(*key);
          if (it != index.end()) {
            for (size_t r : it->second) {
              Tuple combined_row = Tuple::Concat(left, table->row(r));
              EvalContext rctx{&db, &stage.stage_schema, &combined_row, outer,
                               nullptr, nullptr};
              MAYBMS_ASSIGN_OR_RETURN(bool pass,
                                      PassesAll(stage.residuals, rctx));
              if (!pass) continue;
              matched = true;
              next_rows.push_back(std::move(combined_row));
            }
          }
        }
        if (!matched && stage.left_join) next_rows.push_back(pad_row(left));
      }
    }

    acc_rows = std::move(next_rows);
  }

  // Final filter: conjuncts no join stage consumed (subquery predicates,
  // filters over LEFT-joined columns, outer-only or unresolvable
  // references). Subqueries evaluate through the decorrelation cache:
  // plans shared across executions, results scoped to this one.
  if (!final_filters_.empty()) {
    SubqueryCache cache(&final_plans_);
    std::vector<Tuple> filtered;
    filtered.reserve(acc_rows.size());
    for (Tuple& row : acc_rows) {
      EvalContext ctx{&db, &output_schema_, &row, outer, nullptr, &cache};
      MAYBMS_ASSIGN_OR_RETURN(bool keep, PassesAll(final_filters_, ctx));
      if (keep) filtered.push_back(std::move(row));
    }
    acc_rows = std::move(filtered);
  }

  view.owned_rows = std::move(acc_rows);
  view.schema = &output_schema_;
  return view;
}

Result<Table> PreparedFromWhere::Execute(const Database& db,
                                         const EvalContext* outer) {
  MAYBMS_ASSIGN_OR_RETURN(View view, ExecuteView(db, outer));
  if (view.borrowed != nullptr) return Table(output_schema_, *view.borrowed);
  return Table(output_schema_, std::move(view.owned_rows));
}

// ---------------------------------------------------------------------------
// Select-item resolution and static output typing
// ---------------------------------------------------------------------------

Result<std::vector<OutputItem>> ResolveItems(const SelectStatement& stmt,
                                             const Schema& source) {
  std::vector<OutputItem> items;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) {
      bool any = false;
      for (size_t i = 0; i < source.num_columns(); ++i) {
        const Column& col = source.column(i);
        if (!item.star_qualifier.empty() &&
            !AsciiEqualsIgnoreCase(col.qualifier, item.star_qualifier)) {
          continue;
        }
        OutputItem out;
        out.source_column = i;
        out.name = col.name;
        items.push_back(std::move(out));
        any = true;
      }
      if (!any) {
        return Status::InvalidArgument(
            item.star_qualifier.empty()
                ? "SELECT * with no FROM relation"
                : "unknown table alias: " + item.star_qualifier + ".*");
      }
      continue;
    }
    OutputItem out;
    out.expr = item.expr.get();
    if (!item.alias.empty()) {
      out.name = item.alias;
    } else if (item.expr->kind == sql::ExprKind::kColumnRef) {
      out.name = static_cast<const sql::ColumnRefExpr&>(*item.expr).name;
    } else if (item.expr->kind == sql::ExprKind::kFunctionCall) {
      out.name = static_cast<const sql::FunctionCallExpr&>(*item.expr).name;
    } else {
      out.name = "column" + std::to_string(items.size() + 1);
    }
    items.push_back(std::move(out));
  }
  return items;
}

Schema InferOutputSchema(const std::vector<OutputItem>& items,
                         const Schema& source, const Database& db,
                         const EvalContext* outer) {
  EvalContext type_ctx;
  type_ctx.db = &db;
  type_ctx.schema = &source;
  type_ctx.outer = outer;
  Schema schema;
  for (const OutputItem& item : items) {
    DataType type = DataType::kText;
    if (item.expr == nullptr) {
      type = source.column(item.source_column).type;
    } else if (std::optional<DataType> derived =
                   DeriveExprType(*item.expr, type_ctx)) {
      type = *derived;
    }
    schema.AddColumn(Column(item.name, type));
  }
  return schema;
}

// ---------------------------------------------------------------------------
// PreparedSelect
// ---------------------------------------------------------------------------

Result<PreparedSelect::Branch> PreparedSelect::PrepareBranch(
    const SelectStatement& stmt, const Database& schema_db,
    const EvalContext* outer) {
  Branch branch;
  branch.stmt = &stmt;
  MAYBMS_ASSIGN_OR_RETURN(branch.from_where,
                          PreparedFromWhere::Prepare(stmt, schema_db, outer));
  const Schema& source = branch.from_where.output_schema();
  MAYBMS_ASSIGN_OR_RETURN(branch.items, ResolveItems(stmt, source));

  branch.grouped = !stmt.group_by.empty() || StatementHasAggregates(stmt);
  if (branch.grouped) {
    for (const OutputItem& item : branch.items) {
      if (item.expr == nullptr) {
        return Status::InvalidArgument(
            "SELECT * cannot be combined with aggregation");
      }
    }
  }

  branch.out_schema = InferOutputSchema(branch.items, source, schema_db, outer);

  for (const sql::OrderItem& item : stmt.order_by) {
    OrderKeyPlan key;
    key.descending = item.descending;
    key.expr = item.expr.get();
    // ORDER BY <ordinal> names an output column (SQL-92 style). Range
    // violations are recorded but — matching unprepared evaluation, which
    // only inspected keys when sorting actual rows — reported at execution
    // time, and only when the result is non-empty.
    if (item.expr->kind == sql::ExprKind::kLiteral) {
      const Value& lit = static_cast<const sql::LiteralExpr&>(*item.expr).value;
      if (lit.type() == DataType::kInteger) {
        int64_t ordinal = lit.AsInteger();
        if (ordinal < 1 ||
            ordinal > static_cast<int64_t>(branch.out_schema.num_columns())) {
          key.kind = OrderKeyPlan::Kind::kOrdinal;
          key.bad_ordinal = ordinal;
        } else {
          key.kind = OrderKeyPlan::Kind::kOrdinal;
          key.index = static_cast<size_t>(ordinal - 1);
        }
        branch.order_keys.push_back(std::move(key));
        continue;
      }
    }
    if (item.expr->kind == sql::ExprKind::kColumnRef) {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
      if (ref.qualifier.empty() && branch.out_schema.HasColumn(ref.name)) {
        MAYBMS_ASSIGN_OR_RETURN(size_t idx,
                                branch.out_schema.FindColumn(ref.name));
        key.kind = OrderKeyPlan::Kind::kOutputColumn;
        key.index = idx;
        branch.order_keys.push_back(std::move(key));
        continue;
      }
    }
    key.kind = OrderKeyPlan::Kind::kExpr;
    branch.order_keys.push_back(std::move(key));
  }
  return branch;
}

Result<PreparedSelect> PreparedSelect::Prepare(const SelectStatement& stmt,
                                               const Database& schema_db,
                                               const EvalContext* outer) {
  if (HasWorldOps(stmt)) {
    return Status::Unsupported(
        "world-set operations (possible/certain/conf, repair by key, choice "
        "of, assert, group worlds by) cannot run inside the per-world "
        "executor");
  }
  PreparedSelect plan;
  for (const SelectStatement* link = &stmt; link != nullptr;
       link = link->union_next.get()) {
    MAYBMS_ASSIGN_OR_RETURN(Branch branch,
                            PrepareBranch(*link, schema_db, outer));
    if (!plan.branches_.empty() &&
        branch.out_schema.num_columns() !=
            plan.branches_.front().out_schema.num_columns()) {
      return Status::InvalidArgument(
          "set operation operands differ in column count: " +
          std::to_string(plan.branches_.front().out_schema.num_columns()) +
          " vs " + std::to_string(branch.out_schema.num_columns()));
    }
    plan.branches_.push_back(std::move(branch));
  }
  return plan;
}

Result<Table> PreparedSelect::ExecuteBranch(Branch& branch, const Database& db,
                                            const EvalContext* outer) {
  const SelectStatement& stmt = *branch.stmt;
  MAYBMS_ASSIGN_OR_RETURN(PreparedFromWhere::View view,
                          branch.from_where.ExecuteView(db, outer));
  const Schema& source = *view.schema;
  const std::vector<Tuple>& source_rows = view.rows();

  // One subquery result cache per execution; plans are shared via the
  // branch's SubqueryPlanCache across all executions of this statement.
  SubqueryCache subquery_cache(&branch.plans);

  // Representative source rows are only kept when an ORDER BY key must be
  // evaluated against them.
  bool needs_repr = false;
  for (const OrderKeyPlan& key : branch.order_keys) {
    needs_repr |= key.kind == OrderKeyPlan::Kind::kExpr;
  }

  std::vector<Tuple> out_rows;
  std::vector<Tuple> representative;

  auto emit_group = [&](const std::vector<Tuple>* rows) -> Status {
    const Tuple* first = rows->empty() ? nullptr : &(*rows)[0];
    EvalContext ctx{&db, rows->empty() ? nullptr : &source, first, outer,
                    rows, &subquery_cache};
    if (stmt.having) {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent keep, EvalPredicate(*stmt.having, ctx));
      if (keep != Trivalent::kTrue) return Status::OK();
    }
    Tuple out;
    for (const OutputItem& item : branch.items) {
      MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, ctx));
      out.Append(std::move(v));
    }
    out_rows.push_back(std::move(out));
    if (needs_repr) representative.push_back(first ? *first : Tuple());
    return Status::OK();
  };

  if (branch.grouped) {
    if (stmt.group_by.empty()) {
      // One global group (maybe empty): aggregate directly over the
      // source rows, no copy.
      MAYBMS_RETURN_NOT_OK(emit_group(&source_rows));
    } else {
      // Partition rows into groups by the GROUP BY key.
      std::map<Tuple, std::vector<Tuple>> groups;
      for (const Tuple& row : source_rows) {
        EvalContext ctx{&db, &source, &row, outer, nullptr, &subquery_cache};
        Tuple key;
        for (const auto& g : stmt.group_by) {
          MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, ctx));
          key.Append(std::move(v));
        }
        groups[std::move(key)].push_back(row);
      }
      for (auto& [key, rows] : groups) {
        MAYBMS_RETURN_NOT_OK(emit_group(&rows));
      }
    }
  } else {
    out_rows.reserve(source_rows.size());
    for (const Tuple& row : source_rows) {
      EvalContext ctx{&db, &source, &row, outer, nullptr, &subquery_cache};
      Tuple out;
      for (const OutputItem& item : branch.items) {
        if (item.expr == nullptr) {
          out.Append(row.value(item.source_column));
        } else {
          MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, ctx));
          out.Append(std::move(v));
        }
      }
      out_rows.push_back(std::move(out));
      if (needs_repr) representative.push_back(row);
    }
  }

  // DISTINCT before ORDER BY (standard SQL evaluation order).
  if (stmt.distinct) {
    std::vector<size_t> order(out_rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      int c = out_rows[a].Compare(out_rows[b]);
      if (c != 0) return c < 0;
      // Among duplicate output rows, keep the smallest representative
      // source row: an ORDER BY expression key evaluated against the
      // survivor is then a function of the answer bag, not of scan
      // order (part of the docs/isql.md determinism guarantee).
      return needs_repr && representative[a] < representative[b];
    });
    std::vector<Tuple> kept_rows;
    std::vector<Tuple> kept_repr;
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0 && out_rows[order[i]] == out_rows[order[i - 1]]) continue;
      kept_rows.push_back(out_rows[order[i]]);
      if (needs_repr) kept_repr.push_back(representative[order[i]]);
    }
    out_rows = std::move(kept_rows);
    representative = std::move(kept_repr);
  }

  if (!branch.order_keys.empty() && !out_rows.empty()) {
    std::vector<std::vector<Value>> keys(out_rows.size());
    for (size_t i = 0; i < out_rows.size(); ++i) {
      for (const OrderKeyPlan& key_plan : branch.order_keys) {
        Value key;
        switch (key_plan.kind) {
          case OrderKeyPlan::Kind::kOrdinal:
            if (key_plan.bad_ordinal.has_value()) {
              return Status::InvalidArgument(
                  "ORDER BY position " + std::to_string(*key_plan.bad_ordinal) +
                  " is out of range");
            }
            key = out_rows[i].value(key_plan.index);
            break;
          case OrderKeyPlan::Kind::kOutputColumn:
            key = out_rows[i].value(key_plan.index);
            break;
          case OrderKeyPlan::Kind::kExpr: {
            EvalContext ctx{&db, &source, &representative[i], outer, nullptr,
                            &subquery_cache};
            MAYBMS_ASSIGN_OR_RETURN(key, EvalExpr(*key_plan.expr, ctx));
            break;
          }
        }
        keys[i].push_back(std::move(key));
      }
    }
    std::vector<size_t> order(out_rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < branch.order_keys.size(); ++k) {
        int c = keys[a][k].TotalOrderCompare(keys[b][k]);
        if (c != 0) return branch.order_keys[k].descending ? c > 0 : c < 0;
      }
      // Deterministic tie-break (docs/isql.md): rows with equal ORDER BY
      // keys are ordered by the full output row under the value total
      // order, so the sorted sequence — and any LIMIT prefix — depends
      // only on the answer bag, never on scan or engine order.
      return out_rows[a].Compare(out_rows[b]) < 0;
    });
    std::vector<Tuple> sorted;
    sorted.reserve(out_rows.size());
    for (size_t i : order) sorted.push_back(std::move(out_rows[i]));
    out_rows = std::move(sorted);
  }

  if (stmt.limit.has_value() &&
      out_rows.size() > static_cast<size_t>(*stmt.limit)) {
    out_rows.resize(static_cast<size_t>(std::max<int64_t>(0, *stmt.limit)));
  }

  return Table(branch.out_schema, std::move(out_rows));
}

Result<Table> PreparedSelect::Execute(const Database& db,
                                      const EvalContext* outer) {
  MAYBMS_ASSIGN_OR_RETURN(Table acc, ExecuteBranch(branches_[0], db, outer));
  for (size_t b = 1; b < branches_.size(); ++b) {
    sql::SetOpKind op = branches_[b - 1].stmt->set_op;
    MAYBMS_ASSIGN_OR_RETURN(Table rhs, ExecuteBranch(branches_[b], db, outer));
    switch (op) {
      case sql::SetOpKind::kUnionAll:
        for (const Tuple& row : rhs.rows()) acc.AppendUnchecked(row);
        break;
      case sql::SetOpKind::kUnion:
        for (const Tuple& row : rhs.rows()) acc.AppendUnchecked(row);
        acc.DeduplicateRows();
        break;
      case sql::SetOpKind::kIntersect: {
        Table rhs_distinct = rhs.SortedDistinct();
        Table lhs_distinct = acc.SortedDistinct();
        Table kept(acc.schema());
        for (const Tuple& row : lhs_distinct.rows()) {
          if (rhs_distinct.ContainsTuple(row)) kept.AppendUnchecked(row);
        }
        acc = std::move(kept);
        break;
      }
      case sql::SetOpKind::kExcept: {
        Table rhs_distinct = rhs.SortedDistinct();
        Table lhs_distinct = acc.SortedDistinct();
        Table kept(acc.schema());
        for (const Tuple& row : lhs_distinct.rows()) {
          if (!rhs_distinct.ContainsTuple(row)) kept.AppendUnchecked(row);
        }
        acc = std::move(kept);
        break;
      }
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// PreparedProjection
// ---------------------------------------------------------------------------

Result<PreparedProjection> PreparedProjection::Prepare(
    const SelectStatement& stmt, const Database& schema_db,
    const Schema& source) {
  PreparedProjection plan;
  plan.stmt_ = &stmt;
  plan.source_ = source;
  MAYBMS_ASSIGN_OR_RETURN(plan.items_, ResolveItems(stmt, plan.source_));
  for (const OutputItem& item : plan.items_) {
    if (item.expr != nullptr && ContainsAggregate(*item.expr)) {
      return Status::Unsupported(
          "aggregates cannot be combined with repair by key / choice of");
    }
  }
  plan.out_schema_ =
      InferOutputSchema(plan.items_, plan.source_, schema_db, nullptr);
  // A column reference that names one source column reads that column in
  // every row (ResolveColumn's answer), so it is bound here, once.
  for (OutputItem& item : plan.items_) {
    if (item.expr == nullptr || item.expr->kind != ExprKind::kColumnRef) {
      continue;
    }
    const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
    Result<size_t> column = plan.source_.FindColumn(ref.name, ref.qualifier);
    if (!column.ok()) continue;
    item.expr = nullptr;
    item.source_column = *column;
  }
  return plan;
}

Result<Table> PreparedProjection::Execute(const Database& db,
                                          const std::vector<Tuple>& rows) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<Tuple> out_rows, ProjectRows(db, rows));
  return Table(out_schema_, std::move(out_rows));
}

Result<std::vector<Tuple>> PreparedProjection::ProjectRows(
    const Database& db, const std::vector<Tuple>& rows) {
  SubqueryCache subquery_cache(&plans_);
  std::vector<Tuple> out_rows;
  out_rows.reserve(rows.size());
  for (const Tuple& row : rows) {
    EvalContext ctx{&db, &source_, &row, nullptr, nullptr, &subquery_cache};
    std::vector<Value> out;
    out.reserve(items_.size());
    for (const OutputItem& item : items_) {
      if (item.expr == nullptr) {
        out.push_back(row.value(item.source_column));
      } else {
        MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, ctx));
        out.push_back(std::move(v));
      }
    }
    out_rows.emplace_back(std::move(out));
  }
  return out_rows;
}

}  // namespace maybms::engine
