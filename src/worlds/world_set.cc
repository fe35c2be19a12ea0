#include "worlds/world_set.h"

#include "base/string_util.h"
#include "engine/executor.h"

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

namespace {

void CollectFromExpr(const sql::Expr& expr, std::set<std::string>* out);

void CollectFromItems(const std::vector<sql::SelectItem>& items,
                      std::set<std::string>* out) {
  for (const sql::SelectItem& item : items) {
    if (item.expr) CollectFromExpr(*item.expr, out);
  }
}

void CollectFromExpr(const sql::Expr& expr, std::set<std::string>* out) {
  switch (expr.kind) {
    case sql::ExprKind::kLiteral:
    case sql::ExprKind::kColumnRef:
      return;
    case sql::ExprKind::kUnary:
      CollectFromExpr(*static_cast<const sql::UnaryExpr&>(expr).operand, out);
      return;
    case sql::ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      CollectFromExpr(*b.left, out);
      CollectFromExpr(*b.right, out);
      return;
    }
    case sql::ExprKind::kFunctionCall: {
      const auto& f = static_cast<const sql::FunctionCallExpr&>(expr);
      for (const auto& a : f.args) CollectFromExpr(*a, out);
      return;
    }
    case sql::ExprKind::kIsNull:
      CollectFromExpr(*static_cast<const sql::IsNullExpr&>(expr).operand, out);
      return;
    case sql::ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      CollectFromExpr(*in.operand, out);
      for (const auto& i : in.items) CollectFromExpr(*i, out);
      return;
    }
    case sql::ExprKind::kInSubquery: {
      const auto& in = static_cast<const sql::InSubqueryExpr&>(expr);
      CollectFromExpr(*in.operand, out);
      CollectReferencedRelations(*in.subquery, out);
      return;
    }
    case sql::ExprKind::kExists:
      CollectReferencedRelations(
          *static_cast<const sql::ExistsExpr&>(expr).subquery, out);
      return;
    case sql::ExprKind::kScalarSubquery:
      CollectReferencedRelations(
          *static_cast<const sql::ScalarSubqueryExpr&>(expr).subquery, out);
      return;
    case sql::ExprKind::kBetween: {
      const auto& b = static_cast<const sql::BetweenExpr&>(expr);
      CollectFromExpr(*b.operand, out);
      CollectFromExpr(*b.low, out);
      CollectFromExpr(*b.high, out);
      return;
    }
    case sql::ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      for (const auto& w : c.whens) {
        CollectFromExpr(*w.condition, out);
        CollectFromExpr(*w.result, out);
      }
      if (c.else_result) CollectFromExpr(*c.else_result, out);
      return;
    }
    case sql::ExprKind::kCast:
      CollectFromExpr(*static_cast<const sql::CastExpr&>(expr).operand, out);
      return;
  }
}

}  // namespace

void CollectReferencedRelations(const sql::Expr& expr,
                                std::set<std::string>* out) {
  CollectFromExpr(expr, out);
}

void CollectReferencedRelations(const sql::SelectStatement& stmt,
                                std::set<std::string>* out) {
  for (const sql::TableRef& ref : stmt.from) {
    out->insert(AsciiToLower(ref.table_name));
  }
  for (const sql::JoinClause& join : stmt.joins) {
    out->insert(AsciiToLower(join.table.table_name));
    if (join.on) CollectFromExpr(*join.on, out);
  }
  CollectFromItems(stmt.items, out);
  if (stmt.where) CollectFromExpr(*stmt.where, out);
  for (const auto& g : stmt.group_by) CollectFromExpr(*g, out);
  if (stmt.having) CollectFromExpr(*stmt.having, out);
  for (const auto& o : stmt.order_by) CollectFromExpr(*o.expr, out);
  if (stmt.assert_condition) CollectFromExpr(*stmt.assert_condition, out);
  if (stmt.group_worlds_by) CollectReferencedRelations(*stmt.group_worlds_by, out);
  if (stmt.union_next) CollectReferencedRelations(*stmt.union_next, out);
}

Table CanonicalizeGroupKey(const Table& table) { return table.SortedDistinct(); }

}  // namespace maybms::worlds
