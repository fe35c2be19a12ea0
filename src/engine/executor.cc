// Per-world executor entry points. Since the prepared-statement layer
// (engine/prepared.h) landed, ExecuteSelect is a single-shot wrapper:
// prepare the statement against the target database's schemas, execute
// once. Callers that evaluate one statement against many worlds (the
// world-set layer, Monte-Carlo sampling) hold a PreparedSelect directly
// and skip the per-call preparation.

#include "engine/executor.h"

#include "engine/prepared.h"

namespace maybms::engine {

bool HasWorldOps(const sql::SelectStatement& stmt) {
  if (stmt.quantifier != sql::WorldQuantifier::kNone) return true;
  if (stmt.repair.has_value() || stmt.choice.has_value()) return true;
  if (stmt.assert_condition || stmt.group_worlds_by) return true;
  if (stmt.union_next && HasWorldOps(*stmt.union_next)) return true;
  return false;
}

bool StatementHasAggregates(const sql::SelectStatement& stmt) {
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr && ContainsAggregate(*item.expr)) return true;
  }
  if (stmt.having && ContainsAggregate(*stmt.having)) return true;
  return false;
}

Result<Table> ExecuteSelect(const sql::SelectStatement& stmt,
                            const Database& db, const EvalContext* outer) {
  MAYBMS_ASSIGN_OR_RETURN(PreparedSelect plan,
                          PreparedSelect::Prepare(stmt, db, outer));
  return plan.Execute(db, outer);
}

}  // namespace maybms::engine
