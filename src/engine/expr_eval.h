#ifndef MAYBMS_ENGINE_EXPR_EVAL_H_
#define MAYBMS_ENGINE_EXPR_EVAL_H_

#include <functional>
#include <vector>

#include "base/result.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace maybms::engine {

class SubqueryCache;

/// Evaluation environment for one expression over one candidate row.
///
/// `outer` chains contexts for correlated subqueries: a column that does
/// not resolve in the current row schema is looked up in the enclosing
/// query's row. `group_rows` is set while evaluating the select/having
/// list of a grouped query; aggregate function nodes then aggregate over
/// these rows instead of reading the current row.
///
/// `cache` (optional) is the enclosing query scope's subquery plan cache
/// (see engine/planner.h): when set, EXISTS/IN/scalar subquery nodes are
/// evaluated through one-shot decorrelated plans instead of re-executing
/// the subquery per row. It must only be set on contexts whose `outer`
/// chain stays fixed for the cache's lifetime.
struct EvalContext {
  const Database* db = nullptr;
  const Schema* schema = nullptr;             // may be null (no FROM)
  const Tuple* row = nullptr;                 // may be null (no FROM)
  const EvalContext* outer = nullptr;
  const std::vector<Tuple>* group_rows = nullptr;
  SubqueryCache* cache = nullptr;
};

/// Evaluates `expr` in `ctx`. Boolean-valued expressions produce
/// Value::Boolean or NULL (for SQL UNKNOWN).
Result<Value> EvalExpr(const sql::Expr& expr, const EvalContext& ctx);

/// Evaluates `expr` as a predicate; NULL/UNKNOWN maps to kUnknown.
Result<Trivalent> EvalPredicate(const sql::Expr& expr, const EvalContext& ctx);

/// SQL boolean Value for a trivalent truth value (kUnknown -> NULL).
Value TrivalentToValue(Trivalent t);

/// Invokes `fn` on each immediate child expression of `expr`. Subquery
/// statements are not descended into — their expressions resolve in their
/// own scope — but the IN-subquery operand, which lives in the enclosing
/// scope, is visited. The shared traversal skeleton for AST analyses
/// (ContainsAggregate, the planner's reference/correlation scans).
void ForEachChildExpr(const sql::Expr& expr,
                      const std::function<void(const sql::Expr&)>& fn);

/// True if the expression tree contains an aggregate function call
/// (outside of subqueries, which aggregate independently).
bool ContainsAggregate(const sql::Expr& expr);

/// True if the expression tree contains a subquery (EXISTS, IN (...) or a
/// scalar subquery).
bool ContainsSubquery(const sql::Expr& expr);

/// True if `name` (lower-case) is an aggregate function.
bool IsAggregateFunction(const std::string& name);

}  // namespace maybms::engine

#endif  // MAYBMS_ENGINE_EXPR_EVAL_H_
