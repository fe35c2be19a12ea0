#include "worlds/world_set.h"

#include "base/string_util.h"
#include "engine/executor.h"
#include "engine/expr_eval.h"

namespace maybms::worlds {

Status ValidateWorldOps(const sql::SelectStatement& stmt) {
  const bool creates_worlds =
      stmt.repair.has_value() || stmt.choice.has_value();
  if (creates_worlds && stmt.union_next) {
    return Status::Unsupported(
        "repair by key / choice of cannot be combined with UNION");
  }
  // The repair/choice projection only maps the chosen rows, so these
  // clauses would be silently ignored; reject them like aggregates.
  if (creates_worlds &&
      (stmt.distinct || !stmt.group_by.empty() || stmt.having ||
       !stmt.order_by.empty() || stmt.limit.has_value())) {
    return Status::Unsupported(
        "DISTINCT, GROUP BY, HAVING, ORDER BY and LIMIT cannot be combined "
        "with repair by key / choice of");
  }
  if (stmt.repair.has_value() && stmt.choice.has_value()) {
    return Status::Unsupported(
        "repair by key and choice of cannot be combined in one statement");
  }
  if (stmt.union_next && engine::HasWorldOps(*stmt.union_next)) {
    return Status::Unsupported(
        "world-set operations are not allowed in UNION branches");
  }
  if (stmt.group_worlds_by && engine::HasWorldOps(*stmt.group_worlds_by)) {
    return Status::Unsupported(
        "the GROUP WORLDS BY query must be a plain SQL query");
  }
  return Status::OK();
}

std::unique_ptr<sql::SelectStatement> StripWorldOps(
    const sql::SelectStatement& stmt) {
  std::unique_ptr<sql::SelectStatement> core = stmt.Clone();
  core->quantifier = sql::WorldQuantifier::kNone;
  core->repair.reset();
  core->choice.reset();
  core->assert_condition.reset();
  core->group_worlds_by.reset();
  return core;
}

void ForEachSelectBlock(const sql::Expr& expr, const BlockVisitor& visit) {
  switch (expr.kind) {
    case sql::ExprKind::kInSubquery:
      ForEachSelectBlock(
          *static_cast<const sql::InSubqueryExpr&>(expr).subquery, visit);
      break;
    case sql::ExprKind::kExists:
      ForEachSelectBlock(*static_cast<const sql::ExistsExpr&>(expr).subquery,
                         visit);
      break;
    case sql::ExprKind::kScalarSubquery:
      ForEachSelectBlock(
          *static_cast<const sql::ScalarSubqueryExpr&>(expr).subquery, visit);
      break;
    default:
      break;
  }
  engine::ForEachChildExpr(expr, [&visit](const sql::Expr& child) {
    ForEachSelectBlock(child, visit);
  });
}

void ForEachSelectBlock(const sql::SelectStatement& stmt,
                        const BlockVisitor& visit) {
  visit(stmt);
  for (const sql::JoinClause& join : stmt.joins) {
    if (join.on) ForEachSelectBlock(*join.on, visit);
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr) ForEachSelectBlock(*item.expr, visit);
  }
  if (stmt.where) ForEachSelectBlock(*stmt.where, visit);
  for (const auto& g : stmt.group_by) ForEachSelectBlock(*g, visit);
  if (stmt.having) ForEachSelectBlock(*stmt.having, visit);
  for (const auto& o : stmt.order_by) ForEachSelectBlock(*o.expr, visit);
  if (stmt.assert_condition) ForEachSelectBlock(*stmt.assert_condition, visit);
  if (stmt.group_worlds_by) ForEachSelectBlock(*stmt.group_worlds_by, visit);
  if (stmt.union_next) ForEachSelectBlock(*stmt.union_next, visit);
}

namespace {

/// Adds the relations `block` reads in its FROM and JOIN clauses.
BlockVisitor Collector(std::set<std::string>* out) {
  return [out](const sql::SelectStatement& block) {
    for (const sql::TableRef& ref : block.from) {
      out->insert(AsciiToLower(ref.table_name));
    }
    for (const sql::JoinClause& join : block.joins) {
      out->insert(AsciiToLower(join.table.table_name));
    }
  };
}

}  // namespace

void CollectReferencedRelations(const sql::SelectStatement& stmt,
                                std::set<std::string>* out) {
  ForEachSelectBlock(stmt, Collector(out));
}

void CollectReferencedRelations(const sql::Expr& expr,
                                std::set<std::string>* out) {
  ForEachSelectBlock(expr, Collector(out));
}

Result<std::string> DmlTarget(const sql::Statement& stmt,
                              std::set<std::string>* referenced) {
  std::set<std::string> ignored;
  std::set<std::string>* out = referenced != nullptr ? referenced : &ignored;
  std::string target;
  switch (stmt.kind) {
    case sql::StatementKind::kInsert: {
      const auto& insert = static_cast<const sql::InsertStatement&>(stmt);
      target = insert.table_name;
      if (insert.query) CollectReferencedRelations(*insert.query, out);
      for (const auto& row : insert.rows) {
        for (const auto& e : row) CollectReferencedRelations(*e, out);
      }
      break;
    }
    case sql::StatementKind::kUpdate: {
      const auto& update = static_cast<const sql::UpdateStatement&>(stmt);
      target = update.table_name;
      if (update.where) CollectReferencedRelations(*update.where, out);
      for (const auto& [col, e] : update.assignments) {
        CollectReferencedRelations(*e, out);
      }
      break;
    }
    case sql::StatementKind::kDelete: {
      const auto& del = static_cast<const sql::DeleteStatement&>(stmt);
      target = del.table_name;
      if (del.where) CollectReferencedRelations(*del.where, out);
      break;
    }
    default:
      return Status::InvalidArgument("not a DML statement");
  }
  out->insert(AsciiToLower(target));
  return target;
}

Table CanonicalizeGroupKey(const Table& table) { return table.SortedDistinct(); }

}  // namespace maybms::worlds
