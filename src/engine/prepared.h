#ifndef MAYBMS_ENGINE_PREPARED_H_
#define MAYBMS_ENGINE_PREPARED_H_

// Prepared statements: plan once per statement, execute once per world.
//
// Everything in this header is built from *schema-level* information only
// — relation schemas from a representative database, the statement's AST,
// and statically derived expression types. A prepared plan never captures
// world data: no rows, no hash tables over tuples, no per-world subquery
// results. That is the file's core invariant, and it is what makes a plan
// reusable across every world of a world-set (both backends guarantee all
// worlds share one schema catalog; only relation *contents* differ per
// world).
//
// Ownership and lifetime rules:
//  * A prepared plan borrows the statement's AST (`const Expr*` /
//    `const SelectStatement*` pointers). The statement must outlive the
//    plan.
//  * `Prepare` takes a "schema database": any database whose relation
//    schemas match those the plan will execute against (for a world-set,
//    any single world, or the decomposed engine's certain core).
//    Executing a plan against a database with different schemas is
//    undefined.
//  * The `outer` evaluation-context chain passed to Execute must be
//    schema-compatible with the one passed to Prepare (the world-set
//    layer always passes null for both).
//  * Plans own the per-statement SubqueryPlanCache instances (see
//    engine/planner.h): subquery *analysis* is shared across executions,
//    subquery *results* (materialized rows, hash semi-join maps, constant
//    values) live in a per-execution SubqueryCache and die with it.
//
// Trivalent-logic / NULL-key rules are inherited wholesale from the
// planner (engine/planner.h): preparation only decides *where* each
// conjunct is evaluated (scan filter, hash key, residual, final filter);
// every predicate decision is still made by EvalPredicate/SqlEquals, NULL
// or NaN join keys never match, and LEFT-join padding applies on empty
// match sets exactly as in the nested-loop definition.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/result.h"
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace maybms::engine {

/// A fully resolved select item: either a source column (star expansion)
/// or an expression with an output name.
struct OutputItem {
  const sql::Expr* expr = nullptr;  // null for star columns
  size_t source_column = 0;         // used when expr == nullptr
  std::string name;
};

/// The FROM/WHERE pipeline of one statement, planned against schemas:
/// conjuncts classified per join stage into scan filters, hash-join keys,
/// and residuals; unconsumed conjuncts routed to the final filter. Tables
/// are re-resolved by name on every Execute, so one plan serves any
/// number of schema-compatible worlds.
class PreparedFromWhere {
 public:
  static Result<PreparedFromWhere> Prepare(const sql::SelectStatement& stmt,
                                           const Database& schema_db,
                                           const EvalContext* outer = nullptr);

  PreparedFromWhere(PreparedFromWhere&&) = default;
  PreparedFromWhere& operator=(PreparedFromWhere&&) = default;

  /// One execution's result rows without forcing a materialized copy:
  /// the rows either borrow the base table (single-table predicate-free
  /// statements — the per-world repair/choice and simple aggregate hot
  /// path) or live in `owned_rows`; the schema always points into the
  /// plan. The borrow goes through Database::GetRelation's raw pointer,
  /// i.e. straight through the copy-on-write shared-table handle with no
  /// refcount churn in the per-world loop (storage/catalog.h). A View
  /// must not outlive the plan or the database it was executed against.
  struct View {
    std::vector<Tuple> owned_rows;
    const Schema* schema = nullptr;
    const std::vector<Tuple>* borrowed = nullptr;  // null: rows are owned

    const std::vector<Tuple>& rows() const {
      return borrowed != nullptr ? *borrowed : owned_rows;
    }
  };

  Result<View> ExecuteView(const Database& db,
                           const EvalContext* outer = nullptr);

  /// Materializing wrapper (copies the passthrough case).
  Result<Table> Execute(const Database& db, const EvalContext* outer = nullptr);

  /// The alias-qualified output schema (statically known).
  const Schema& output_schema() const { return output_schema_; }

 private:
  friend class PreparedSelect;  // branches hold a default-constructed plan

  PreparedFromWhere() = default;

  /// One FROM item or JOIN clause with everything preparation decided for
  /// its join stage.
  struct Stage {
    bool left_join = false;
    std::string relation;  // resolved per world by name
    Schema schema;         // alias-qualified
    Schema acc_schema;     // accumulated schema before this stage
    Schema stage_schema;   // accumulated schema including this stage
    std::vector<const sql::Expr*> scan_filters;
    std::vector<const sql::Expr*> acc_keys;
    std::vector<const sql::Expr*> right_keys;
    std::vector<const sql::Expr*> residuals;
  };

  bool passthrough_ = false;  // single table, no WHERE, no JOINs
  std::string passthrough_relation_;
  std::vector<Stage> stages_;
  std::vector<const sql::Expr*> final_filters_;
  Schema output_schema_;
  SubqueryPlanCache final_plans_;  // subqueries in the final filter
};

/// A select statement (including its UNION/set-op chain) planned against
/// schemas: per-branch FROM/WHERE plan, resolved select items, statically
/// derived output schema, ORDER BY key resolution, and shared subquery
/// plans. Executing against N worlds performs the schema-level work once
/// instead of N times.
class PreparedSelect {
 public:
  static Result<PreparedSelect> Prepare(const sql::SelectStatement& stmt,
                                        const Database& schema_db,
                                        const EvalContext* outer = nullptr);

  PreparedSelect(PreparedSelect&&) = default;
  PreparedSelect& operator=(PreparedSelect&&) = default;

  Result<Table> Execute(const Database& db, const EvalContext* outer = nullptr);

  const Schema& output_schema() const { return branches_.front().out_schema; }

 private:
  PreparedSelect() = default;

  /// How one ORDER BY key resolves (SQL-92 ordinal, output column, or an
  /// expression over the representative source row). Ordinal range
  /// violations are detected at preparation but — matching the unprepared
  /// evaluation order — only reported when a row is actually sorted.
  struct OrderKeyPlan {
    enum class Kind { kOrdinal, kOutputColumn, kExpr } kind = Kind::kExpr;
    size_t index = 0;                  // ordinal / output column index
    const sql::Expr* expr = nullptr;   // kExpr
    bool descending = false;
    std::optional<int64_t> bad_ordinal;  // out-of-range ordinal, if any
  };

  struct Branch {
    const sql::SelectStatement* stmt = nullptr;
    PreparedFromWhere from_where;
    std::vector<OutputItem> items;
    Schema out_schema;
    bool grouped = false;
    std::vector<OrderKeyPlan> order_keys;
    SubqueryPlanCache plans;  // select list / HAVING / GROUP BY / ORDER BY
  };

  static Result<Branch> PrepareBranch(const sql::SelectStatement& stmt,
                                      const Database& schema_db,
                                      const EvalContext* outer);
  Result<Table> ExecuteBranch(Branch& branch, const Database& db,
                              const EvalContext* outer);

  std::vector<Branch> branches_;  // head + UNION chain, in order
};

/// The projection of `repair by key` / `choice of` statements, applied to
/// chosen tuple subsets: resolved items + static output schema, prepared
/// once per statement instead of once per world (or per world combination).
class PreparedProjection {
 public:
  /// `source` is the qualified FROM/WHERE output schema the chosen rows
  /// carry. Aggregates are rejected (they cannot be combined with
  /// repair/choice).
  static Result<PreparedProjection> Prepare(const sql::SelectStatement& stmt,
                                            const Database& schema_db,
                                            const Schema& source);

  PreparedProjection(PreparedProjection&&) = default;
  PreparedProjection& operator=(PreparedProjection&&) = default;

  Result<Table> Execute(const Database& db, const std::vector<Tuple>& rows);
  /// Execute's rows alone, without a copy of the output schema.
  Result<std::vector<Tuple>> ProjectRows(const Database& db,
                                         const std::vector<Tuple>& rows);

  const Schema& output_schema() const { return out_schema_; }

 private:
  PreparedProjection() = default;

  const sql::SelectStatement* stmt_ = nullptr;
  Schema source_;
  std::vector<OutputItem> items_;
  Schema out_schema_;
  SubqueryPlanCache plans_;
};

/// Resolves the statement's select list against `source` (star expansion,
/// output names). Shared by PreparedSelect/PreparedProjection and exposed
/// for the executor.
Result<std::vector<OutputItem>> ResolveItems(const sql::SelectStatement& stmt,
                                             const Schema& source);

/// Statically types the resolved items (declared source type for star
/// columns, the type deriver for expressions, kText where nothing can be
/// derived). Rows are never consulted, so the result is identical for
/// empty and populated inputs and across both engine backends.
Schema InferOutputSchema(const std::vector<OutputItem>& items,
                         const Schema& source, const Database& db,
                         const EvalContext* outer);

}  // namespace maybms::engine

#endif  // MAYBMS_ENGINE_PREPARED_H_
