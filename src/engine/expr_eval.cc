#include "engine/expr_eval.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "base/string_util.h"
#include "engine/executor.h"
#include "engine/planner.h"

namespace maybms::engine {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;

Trivalent ValueToTrivalent(const Value& v) {
  if (v.is_null()) return Trivalent::kUnknown;
  if (v.type() == DataType::kBoolean) {
    return v.AsBoolean() ? Trivalent::kTrue : Trivalent::kFalse;
  }
  // Non-boolean non-null values are truthy only if numeric non-zero
  // (lenient, PostgreSQL would reject; we accept for convenience).
  if (v.IsNumeric()) {
    return v.NumericValue() != 0 ? Trivalent::kTrue : Trivalent::kFalse;
  }
  return Trivalent::kTrue;
}

/// Looks `qualifier.name` up through the context chain.
Result<Value> ResolveColumn(const sql::ColumnRefExpr& ref,
                            const EvalContext& ctx) {
  for (const EvalContext* c = &ctx; c != nullptr; c = c->outer) {
    if (c->schema == nullptr || c->row == nullptr) continue;
    size_t idx = 0;
    const size_t matches = c->schema->Match(ref.name, ref.qualifier, &idx);
    if (matches == 1) return c->row->value(idx);
    if (matches > 1) {
      return c->schema->FindColumn(ref.name, ref.qualifier).status();
    }
  }
  return Status::NotFound("column not found: " +
                          (ref.qualifier.empty()
                               ? ref.name
                               : ref.qualifier + "." + ref.name));
}

Result<Value> EvalBinary(const sql::BinaryExpr& expr, const EvalContext& ctx) {
  // AND/OR need lazy semantics for three-valued logic.
  if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
    MAYBMS_ASSIGN_OR_RETURN(Trivalent left, EvalPredicate(*expr.left, ctx));
    if (expr.op == BinaryOp::kAnd && left == Trivalent::kFalse) {
      return Value::Boolean(false);
    }
    if (expr.op == BinaryOp::kOr && left == Trivalent::kTrue) {
      return Value::Boolean(true);
    }
    MAYBMS_ASSIGN_OR_RETURN(Trivalent right, EvalPredicate(*expr.right, ctx));
    Trivalent result = expr.op == BinaryOp::kAnd ? TrivalentAnd(left, right)
                                                 : TrivalentOr(left, right);
    return TrivalentToValue(result);
  }

  MAYBMS_ASSIGN_OR_RETURN(Value left, EvalExpr(*expr.left, ctx));
  MAYBMS_ASSIGN_OR_RETURN(Value right, EvalExpr(*expr.right, ctx));

  switch (expr.op) {
    case BinaryOp::kEquals: {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent t, left.SqlEquals(right));
      return TrivalentToValue(t);
    }
    case BinaryOp::kNotEquals: {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent t, left.SqlEquals(right));
      return TrivalentToValue(TrivalentNot(t));
    }
    case BinaryOp::kLess: {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent t, left.SqlLess(right));
      return TrivalentToValue(t);
    }
    case BinaryOp::kGreaterEquals: {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent t, left.SqlLess(right));
      return TrivalentToValue(TrivalentNot(t));
    }
    case BinaryOp::kGreater: {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent t, right.SqlLess(left));
      return TrivalentToValue(t);
    }
    case BinaryOp::kLessEquals: {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent t, right.SqlLess(left));
      return TrivalentToValue(TrivalentNot(t));
    }
    case BinaryOp::kLike: {
      if (left.is_null() || right.is_null()) return Value::Null();
      if (left.type() != DataType::kText || right.type() != DataType::kText) {
        return Status::TypeError("LIKE requires text operands");
      }
      return Value::Boolean(LikeMatch(left.AsText(), right.AsText()));
    }
    default:
      break;
  }

  // Arithmetic.
  if (left.is_null() || right.is_null()) return Value::Null();
  if (!left.IsNumeric() || !right.IsNumeric()) {
    // Allow '+' as concatenation of two texts for convenience.
    if (expr.op == BinaryOp::kAdd && left.type() == DataType::kText &&
        right.type() == DataType::kText) {
      return Value::Text(left.AsText() + right.AsText());
    }
    return Status::TypeError(std::string("arithmetic on non-numeric types: ") +
                             DataTypeToString(left.type()) + " " +
                             sql::BinaryOpToString(expr.op) + " " +
                             DataTypeToString(right.type()));
  }
  bool both_int = left.type() == DataType::kInteger &&
                  right.type() == DataType::kInteger;
  switch (expr.op) {
    case BinaryOp::kAdd:
      return both_int ? Value::Integer(left.AsInteger() + right.AsInteger())
                      : Value::Real(left.NumericValue() + right.NumericValue());
    case BinaryOp::kSubtract:
      return both_int ? Value::Integer(left.AsInteger() - right.AsInteger())
                      : Value::Real(left.NumericValue() - right.NumericValue());
    case BinaryOp::kMultiply:
      return both_int ? Value::Integer(left.AsInteger() * right.AsInteger())
                      : Value::Real(left.NumericValue() * right.NumericValue());
    case BinaryOp::kDivide:
      // Division is always real to avoid silent truncation in weight
      // arithmetic (documented deviation from PostgreSQL int division).
      if (right.NumericValue() == 0) {
        return Status::RuntimeError("division by zero");
      }
      return Value::Real(left.NumericValue() / right.NumericValue());
    case BinaryOp::kModulo:
      if (!both_int) return Status::TypeError("% requires integer operands");
      if (right.AsInteger() == 0) {
        return Status::RuntimeError("modulo by zero");
      }
      return Value::Integer(left.AsInteger() % right.AsInteger());
    default:
      return Status::RuntimeError("unhandled binary operator");
  }
}

bool IsDistinctSensitive(const std::string& name) {
  return name == "sum" || name == "count" || name == "avg";
}

Result<Value> EvalAggregate(const sql::FunctionCallExpr& call,
                            const EvalContext& ctx) {
  if (ctx.group_rows == nullptr) {
    return Status::InvalidArgument("aggregate function " + call.name +
                                   " used outside of an aggregate query");
  }
  const std::vector<Tuple>& rows = *ctx.group_rows;

  if (call.star) {
    if (call.name != "count") {
      return Status::InvalidArgument(call.name + "(*) is not valid");
    }
    return Value::Integer(static_cast<int64_t>(rows.size()));
  }
  if (call.args.size() != 1) {
    return Status::InvalidArgument("aggregate " + call.name +
                                   " takes exactly one argument");
  }

  // Evaluate the argument once per group row (with group_rows masked so a
  // nested column ref reads the row, not the group).
  std::vector<Value> inputs;
  inputs.reserve(rows.size());
  for (const Tuple& row : rows) {
    EvalContext row_ctx = ctx;
    row_ctx.row = &row;
    row_ctx.group_rows = nullptr;
    MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*call.args[0], row_ctx));
    if (!v.is_null()) inputs.push_back(std::move(v));
  }

  if (call.distinct && IsDistinctSensitive(call.name)) {
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
  }

  if (call.name == "count") {
    return Value::Integer(static_cast<int64_t>(inputs.size()));
  }
  if (inputs.empty()) return Value::Null();

  if (call.name == "min" || call.name == "max") {
    Value best = inputs[0];
    for (size_t i = 1; i < inputs.size(); ++i) {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent less, inputs[i].SqlLess(best));
      bool take = call.name == "min" ? less == Trivalent::kTrue
                                     : less == Trivalent::kFalse;
      if (call.name == "max") {
        MAYBMS_ASSIGN_OR_RETURN(Trivalent greater, best.SqlLess(inputs[i]));
        take = greater == Trivalent::kTrue;
      }
      if (take) best = inputs[i];
    }
    return best;
  }

  // sum / avg need numerics.
  bool all_int = true;
  double sum = 0;
  int64_t isum = 0;
  for (const Value& v : inputs) {
    if (!v.IsNumeric()) {
      return Status::TypeError(call.name + " over non-numeric values");
    }
    if (v.type() == DataType::kInteger) {
      // Wraps on overflow (two's complement), as a defined operation: the
      // sum is then independent of the order the rows come in.
      isum = static_cast<int64_t>(static_cast<uint64_t>(isum) +
                                  static_cast<uint64_t>(v.AsInteger()));
    } else {
      all_int = false;
    }
    sum += v.NumericValue();
  }
  if (call.name == "sum") {
    return all_int ? Value::Integer(isum) : Value::Real(sum);
  }
  if (call.name == "avg") {
    return Value::Real(sum / static_cast<double>(inputs.size()));
  }
  return Status::InvalidArgument("unknown aggregate: " + call.name);
}

Result<Value> EvalScalarFunction(const sql::FunctionCallExpr& call,
                                 const EvalContext& ctx) {
  std::vector<Value> args;
  args.reserve(call.args.size());
  for (const auto& a : call.args) {
    MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*a, ctx));
    args.push_back(std::move(v));
  }
  auto require_args = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument(call.name + " takes " +
                                     std::to_string(n) + " argument(s)");
    }
    return Status::OK();
  };

  if (call.name == "abs") {
    MAYBMS_RETURN_NOT_OK(require_args(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == DataType::kInteger) {
      return Value::Integer(std::llabs(args[0].AsInteger()));
    }
    if (args[0].type() == DataType::kReal) {
      return Value::Real(std::fabs(args[0].AsReal()));
    }
    return Status::TypeError("abs requires a numeric argument");
  }
  if (call.name == "round") {
    if (args.size() != 1 && args.size() != 2) {
      return Status::InvalidArgument("round takes 1 or 2 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    if (!args[0].IsNumeric()) {
      return Status::TypeError("round requires a numeric argument");
    }
    double scale = 1;
    if (args.size() == 2) {
      if (!args[1].IsNumeric()) {
        return Status::TypeError("round digit count must be numeric");
      }
      scale = std::pow(10.0, args[1].NumericValue());
    }
    return Value::Real(std::round(args[0].NumericValue() * scale) / scale);
  }
  if (call.name == "lower" || call.name == "upper") {
    MAYBMS_RETURN_NOT_OK(require_args(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != DataType::kText) {
      return Status::TypeError(call.name + " requires a text argument");
    }
    return Value::Text(call.name == "lower" ? AsciiToLower(args[0].AsText())
                                            : AsciiToUpper(args[0].AsText()));
  }
  if (call.name == "length") {
    MAYBMS_RETURN_NOT_OK(require_args(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != DataType::kText) {
      return Status::TypeError("length requires a text argument");
    }
    return Value::Integer(static_cast<int64_t>(args[0].AsText().size()));
  }
  if (call.name == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (call.name == "nullif") {
    MAYBMS_RETURN_NOT_OK(require_args(2));
    if (args[0].is_null()) return Value::Null();
    MAYBMS_ASSIGN_OR_RETURN(Trivalent eq, args[0].SqlEquals(args[1]));
    return eq == Trivalent::kTrue ? Value::Null() : args[0];
  }
  if (call.name == "floor" || call.name == "ceil" || call.name == "ceiling") {
    MAYBMS_RETURN_NOT_OK(require_args(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].IsNumeric()) {
      return Status::TypeError(call.name + " requires a numeric argument");
    }
    double v = args[0].NumericValue();
    return Value::Integer(static_cast<int64_t>(
        call.name == "floor" ? std::floor(v) : std::ceil(v)));
  }
  if (call.name == "sign") {
    MAYBMS_RETURN_NOT_OK(require_args(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].IsNumeric()) {
      return Status::TypeError("sign requires a numeric argument");
    }
    double v = args[0].NumericValue();
    return Value::Integer(v > 0 ? 1 : (v < 0 ? -1 : 0));
  }
  if (call.name == "mod") {
    MAYBMS_RETURN_NOT_OK(require_args(2));
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    if (args[0].type() != DataType::kInteger ||
        args[1].type() != DataType::kInteger) {
      return Status::TypeError("mod requires integer arguments");
    }
    if (args[1].AsInteger() == 0) {
      return Status::RuntimeError("modulo by zero");
    }
    return Value::Integer(args[0].AsInteger() % args[1].AsInteger());
  }
  if (call.name == "substr" || call.name == "substring") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::InvalidArgument("substr takes 2 or 3 arguments");
    }
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    if (args[0].type() != DataType::kText || !args[1].IsNumeric()) {
      return Status::TypeError("substr(text, start [, length])");
    }
    const std::string& s = args[0].AsText();
    // 1-based start, clamped to the string (PostgreSQL-like).
    int64_t start = static_cast<int64_t>(args[1].NumericValue());
    int64_t len = args.size() == 3 && !args[2].is_null()
                      ? static_cast<int64_t>(args[2].NumericValue())
                      : static_cast<int64_t>(s.size()) + 1;
    if (len < 0) return Status::InvalidArgument("negative substr length");
    int64_t begin = std::max<int64_t>(start, 1);
    int64_t end = start + len;  // exclusive, 1-based
    if (begin >= end || begin > static_cast<int64_t>(s.size())) {
      return Value::Text("");
    }
    end = std::min<int64_t>(end, static_cast<int64_t>(s.size()) + 1);
    return Value::Text(s.substr(static_cast<size_t>(begin - 1),
                                static_cast<size_t>(end - begin)));
  }
  if (call.name == "replace") {
    MAYBMS_RETURN_NOT_OK(require_args(3));
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null();
      if (v.type() != DataType::kText) {
        return Status::TypeError("replace requires text arguments");
      }
    }
    const std::string& from = args[1].AsText();
    if (from.empty()) return args[0];
    std::string out;
    const std::string& s = args[0].AsText();
    size_t pos = 0;
    while (true) {
      size_t next = s.find(from, pos);
      if (next == std::string::npos) {
        out += s.substr(pos);
        break;
      }
      out += s.substr(pos, next - pos);
      out += args[2].AsText();
      pos = next + from.size();
    }
    return Value::Text(std::move(out));
  }
  if (call.name == "concat") {
    std::string out;
    for (const Value& v : args) {
      if (!v.is_null()) out += v.ToString();
    }
    return Value::Text(std::move(out));
  }
  return Status::InvalidArgument("unknown function: " + call.name);
}

}  // namespace

Value TrivalentToValue(Trivalent t) {
  switch (t) {
    case Trivalent::kTrue:
      return Value::Boolean(true);
    case Trivalent::kFalse:
      return Value::Boolean(false);
    case Trivalent::kUnknown:
      return Value::Null();
  }
  return Value::Null();
}

void ForEachChildExpr(const sql::Expr& expr,
                      const std::function<void(const sql::Expr&)>& fn) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
      return;  // leaves (subquery statements are scoped separately)
    case ExprKind::kUnary:
      fn(*static_cast<const sql::UnaryExpr&>(expr).operand);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      fn(*b.left);
      fn(*b.right);
      return;
    }
    case ExprKind::kFunctionCall:
      for (const auto& a : static_cast<const sql::FunctionCallExpr&>(expr).args) {
        fn(*a);
      }
      return;
    case ExprKind::kIsNull:
      fn(*static_cast<const sql::IsNullExpr&>(expr).operand);
      return;
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      fn(*in.operand);
      for (const auto& i : in.items) fn(*i);
      return;
    }
    case ExprKind::kInSubquery:
      fn(*static_cast<const sql::InSubqueryExpr&>(expr).operand);
      return;
    case ExprKind::kBetween: {
      const auto& b = static_cast<const sql::BetweenExpr&>(expr);
      fn(*b.operand);
      fn(*b.low);
      fn(*b.high);
      return;
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      for (const auto& w : c.whens) {
        fn(*w.condition);
        fn(*w.result);
      }
      if (c.else_result) fn(*c.else_result);
      return;
    }
    case ExprKind::kCast:
      fn(*static_cast<const sql::CastExpr&>(expr).operand);
      return;
  }
}

bool IsAggregateFunction(const std::string& name) {
  return name == "sum" || name == "count" || name == "avg" || name == "min" ||
         name == "max";
}

bool ContainsAggregate(const sql::Expr& expr) {
  if (expr.kind == ExprKind::kFunctionCall &&
      IsAggregateFunction(
          static_cast<const sql::FunctionCallExpr&>(expr).name)) {
    return true;
  }
  // Subquery statements are not descended into: they aggregate
  // independently (ForEachChildExpr still visits the IN operand).
  bool found = false;
  ForEachChildExpr(expr, [&found](const sql::Expr& child) {
    if (!found) found = ContainsAggregate(child);
  });
  return found;
}

bool ContainsSubquery(const sql::Expr& expr) {
  if (expr.kind == ExprKind::kExists || expr.kind == ExprKind::kInSubquery ||
      expr.kind == ExprKind::kScalarSubquery) {
    return true;
  }
  bool found = false;
  ForEachChildExpr(expr, [&found](const sql::Expr& child) {
    if (!found) found = ContainsSubquery(child);
  });
  return found;
}

Result<Trivalent> EvalPredicate(const sql::Expr& expr,
                                const EvalContext& ctx) {
  MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, ctx));
  return ValueToTrivalent(v);
}

Result<Value> EvalExpr(const sql::Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return static_cast<const sql::LiteralExpr&>(expr).value;

    case ExprKind::kColumnRef:
      return ResolveColumn(static_cast<const sql::ColumnRefExpr&>(expr), ctx);

    case ExprKind::kUnary: {
      const auto& u = static_cast<const sql::UnaryExpr&>(expr);
      if (u.op == UnaryOp::kNot) {
        MAYBMS_ASSIGN_OR_RETURN(Trivalent t, EvalPredicate(*u.operand, ctx));
        return TrivalentToValue(TrivalentNot(t));
      }
      MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*u.operand, ctx));
      if (v.is_null()) return Value::Null();
      if (v.type() == DataType::kInteger) return Value::Integer(-v.AsInteger());
      if (v.type() == DataType::kReal) return Value::Real(-v.AsReal());
      return Status::TypeError("unary minus on non-numeric value");
    }

    case ExprKind::kBinary:
      return EvalBinary(static_cast<const sql::BinaryExpr&>(expr), ctx);

    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const sql::FunctionCallExpr&>(expr);
      if (IsAggregateFunction(f.name)) return EvalAggregate(f, ctx);
      return EvalScalarFunction(f, ctx);
    }

    case ExprKind::kIsNull: {
      const auto& n = static_cast<const sql::IsNullExpr&>(expr);
      MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*n.operand, ctx));
      return Value::Boolean(n.negated ? !v.is_null() : v.is_null());
    }

    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      MAYBMS_ASSIGN_OR_RETURN(Value operand, EvalExpr(*in.operand, ctx));
      Trivalent found = Trivalent::kFalse;
      for (const auto& item : in.items) {
        MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*item, ctx));
        MAYBMS_ASSIGN_OR_RETURN(Trivalent eq, operand.SqlEquals(v));
        found = TrivalentOr(found, eq);
        if (found == Trivalent::kTrue) break;
      }
      return TrivalentToValue(in.negated ? TrivalentNot(found) : found);
    }

    case ExprKind::kInSubquery: {
      if (ctx.cache != nullptr) {
        MAYBMS_ASSIGN_OR_RETURN(std::optional<Value> cached,
                                EvalSubqueryViaCache(expr, ctx));
        if (cached.has_value()) return std::move(*cached);
      }
      const auto& in = static_cast<const sql::InSubqueryExpr&>(expr);
      MAYBMS_ASSIGN_OR_RETURN(Value operand, EvalExpr(*in.operand, ctx));
      MAYBMS_ASSIGN_OR_RETURN(Table result,
                              ExecuteSelect(*in.subquery, *ctx.db, &ctx));
      if (result.schema().num_columns() != 1) {
        return Status::InvalidArgument(
            "IN subquery must return exactly one column");
      }
      Trivalent found = Trivalent::kFalse;
      for (const Tuple& row : result.rows()) {
        MAYBMS_ASSIGN_OR_RETURN(Trivalent eq, operand.SqlEquals(row.value(0)));
        found = TrivalentOr(found, eq);
        if (found == Trivalent::kTrue) break;
      }
      return TrivalentToValue(in.negated ? TrivalentNot(found) : found);
    }

    case ExprKind::kExists: {
      if (ctx.cache != nullptr) {
        MAYBMS_ASSIGN_OR_RETURN(std::optional<Value> cached,
                                EvalSubqueryViaCache(expr, ctx));
        if (cached.has_value()) return std::move(*cached);
      }
      const auto& ex = static_cast<const sql::ExistsExpr&>(expr);
      MAYBMS_ASSIGN_OR_RETURN(Table result,
                              ExecuteSelect(*ex.subquery, *ctx.db, &ctx));
      bool exists = !result.empty();
      return Value::Boolean(ex.negated ? !exists : exists);
    }

    case ExprKind::kScalarSubquery: {
      if (ctx.cache != nullptr) {
        MAYBMS_ASSIGN_OR_RETURN(std::optional<Value> cached,
                                EvalSubqueryViaCache(expr, ctx));
        if (cached.has_value()) return std::move(*cached);
      }
      const auto& sub = static_cast<const sql::ScalarSubqueryExpr&>(expr);
      MAYBMS_ASSIGN_OR_RETURN(Table result,
                              ExecuteSelect(*sub.subquery, *ctx.db, &ctx));
      if (result.schema().num_columns() != 1) {
        return Status::InvalidArgument(
            "scalar subquery must return exactly one column");
      }
      if (result.empty()) return Value::Null();
      if (result.num_rows() > 1) {
        return Status::RuntimeError(
            "scalar subquery returned more than one row");
      }
      return result.row(0).value(0);
    }

    case ExprKind::kBetween: {
      const auto& b = static_cast<const sql::BetweenExpr&>(expr);
      MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*b.operand, ctx));
      MAYBMS_ASSIGN_OR_RETURN(Value lo, EvalExpr(*b.low, ctx));
      MAYBMS_ASSIGN_OR_RETURN(Value hi, EvalExpr(*b.high, ctx));
      MAYBMS_ASSIGN_OR_RETURN(Trivalent below, v.SqlLess(lo));
      MAYBMS_ASSIGN_OR_RETURN(Trivalent above, hi.SqlLess(v));
      Trivalent in_range =
          TrivalentAnd(TrivalentNot(below), TrivalentNot(above));
      return TrivalentToValue(b.negated ? TrivalentNot(in_range) : in_range);
    }

    case ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      for (const auto& w : c.whens) {
        MAYBMS_ASSIGN_OR_RETURN(Trivalent t, EvalPredicate(*w.condition, ctx));
        if (t == Trivalent::kTrue) return EvalExpr(*w.result, ctx);
      }
      if (c.else_result) return EvalExpr(*c.else_result, ctx);
      return Value::Null();
    }

    case ExprKind::kCast: {
      const auto& c = static_cast<const sql::CastExpr&>(expr);
      MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*c.operand, ctx));
      return v.CastTo(c.target);
    }
  }
  return Status::RuntimeError("unhandled expression kind");
}

}  // namespace maybms::engine
