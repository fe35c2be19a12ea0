#ifndef MAYBMS_ENGINE_EXECUTOR_H_
#define MAYBMS_ENGINE_EXECUTOR_H_

#include "base/result.h"
#include "engine/expr_eval.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace maybms::engine {

/// True if the statement uses any of the I-SQL world-set operations
/// (possible/certain/conf, repair by key, choice of, assert, group worlds
/// by) at its top level or in a UNION branch. Such statements must be
/// evaluated by the world-set layer, not by the per-world executor.
bool HasWorldOps(const sql::SelectStatement& stmt);

/// True if the statement's select list or HAVING clause contains an
/// aggregate function call (which makes the statement a grouped query even
/// without GROUP BY).
bool StatementHasAggregates(const sql::SelectStatement& stmt);

/// Evaluates the SQL core of `stmt` in a single world `db` under standard
/// (per-world) semantics. `outer` is the enclosing row context for
/// correlated subqueries (null at top level).
///
/// Returns Unsupported if the statement carries world-set operations.
Result<Table> ExecuteSelect(const sql::SelectStatement& stmt,
                            const Database& db,
                            const EvalContext* outer = nullptr);

}  // namespace maybms::engine

#endif  // MAYBMS_ENGINE_EXECUTOR_H_
