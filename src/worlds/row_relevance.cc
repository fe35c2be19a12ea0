#include "worlds/row_relevance.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "base/string_util.h"
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

namespace {

using Class = ColumnRange::Class;
using Node = RangeTests::Node;
using Occurrence = RangeTests::Occurrence;

// Whether a test may be TRUE or FALSE on some row of a component, and
// whether evaluating it may fail on one, as bits. UNKNOWN is not tracked:
// under NOT, AND and OR it never leads to TRUE, so no row it stands for
// is kept.
constexpr uint8_t kTrue = 1;
constexpr uint8_t kFalse = 2;
constexpr uint8_t kError = 4;

uint8_t Not(uint8_t a) {
  return static_cast<uint8_t>((a & kError) | ((a & kTrue) << 1) |
                              ((a & kFalse) >> 1));
}

uint8_t And(uint8_t a, uint8_t b) {
  return static_cast<uint8_t>((a & b & kTrue) | ((a | b) & (kFalse | kError)));
}

/// The sign of a - b for two values of one class. Numbers compare by
/// exact value, as SQL compares them: two integers as int64, else as long
/// double, which holds every int64 and every double exactly.
int Order(const Value& a, const Value& b) {
  const DataType x = a.type();
  const DataType y = b.type();
  if (x == DataType::kInteger && y == DataType::kInteger) {
    return (a.AsInteger() > b.AsInteger()) - (a.AsInteger() < b.AsInteger());
  }
  if (a.IsNumeric() && b.IsNumeric()) {
    const auto exact = [](const Value& v) {
      return v.type() == DataType::kInteger
                 ? static_cast<long double>(v.AsInteger())
                 : static_cast<long double>(v.AsReal());
    };
    const long double p = exact(a);
    const long double q = exact(b);
    return (p > q) - (p < q);
  }
  return a.TotalOrderCompare(b);
}

/// The outcomes of `column op literal` on rows whose column values lie
/// between a minimum and a maximum of the literal's class, from the signs
/// of min - literal (`lo`) and max - literal (`hi`).
uint8_t CompareOutcomes(sql::BinaryOp op, int lo, int hi) {
  const bool inside = lo <= 0 && hi >= 0;
  const bool only = lo == 0 && hi == 0;
  bool t = false;
  bool f = false;
  switch (op) {
    case sql::BinaryOp::kEquals:
      t = inside;
      f = !only;
      break;
    case sql::BinaryOp::kNotEquals:
      t = !only;
      f = inside;
      break;
    case sql::BinaryOp::kLess:
      t = lo < 0;
      f = hi >= 0;
      break;
    case sql::BinaryOp::kLessEquals:
      t = lo <= 0;
      f = hi > 0;
      break;
    case sql::BinaryOp::kGreater:
      t = hi > 0;
      f = lo <= 0;
      break;
    default:  // kGreaterEquals
      t = hi >= 0;
      f = lo < 0;
      break;
  }
  return static_cast<uint8_t>((t ? kTrue : 0) | (f ? kFalse : 0));
}

/// A kCompare node for `column op literal`.
Node Comparison(size_t column, sql::BinaryOp op, Value literal) {
  Node node;
  node.column = column;
  node.literal_class = ColumnRange::ClassOf(literal);
  node.literals.push_back(std::move(literal));
  for (int lo = -1; lo <= 1; ++lo) {
    for (int hi = -1; hi <= 1; ++hi) {
      node.outcomes[(lo + 1) * 3 + hi + 1] = CompareOutcomes(op, lo, hi);
    }
  }
  return node;
}

/// `column op literal` over the rows whose column values `range` bounds.
/// A NULL on either side is UNKNOWN, never an error; values of two classes
/// fail to compare.
uint8_t Compare(const ColumnRange& range, const Node& node) {
  if (node.literal_class == Class::kNone ||
      range.value_class == Class::kNone) {
    return 0;
  }
  if (range.value_class != node.literal_class) return kError;  // or kMixed
  const Value& literal = node.literals[0];
  return node.outcomes[(Order(*range.min, literal) + 1) * 3 +
                       Order(*range.max, literal) + 1];
}

/// `column IN (literals)`: TRUE where a value may equal an item; where it
/// may equal none, FALSE, unless an item is NULL (then UNKNOWN).
uint8_t In(const ColumnRange& range, const std::vector<Value>& literals) {
  uint8_t o = 0;
  if (range.value_class == Class::kNone) return o;
  bool null_item = false;
  bool always_found = false;  // every value equals one item
  for (const Value& literal : literals) {
    if (literal.is_null()) {
      null_item = true;
    } else if (range.value_class != ColumnRange::ClassOf(literal)) {
      o |= kError;
    } else {
      const int lo = Order(*range.min, literal);
      const int hi = Order(*range.max, literal);
      if (lo <= 0 && hi >= 0) o |= kTrue;
      always_found = always_found || (lo == 0 && hi == 0);
    }
  }
  if (!always_found && !null_item) o |= kFalse;
  return o;
}

/// `column op column` within one row: never decided by ranges, but it
/// cannot fail when both columns hold one class.
uint8_t Columns(const ColumnRange& a, const ColumnRange& b) {
  if (a.value_class == Class::kNone || b.value_class == Class::kNone) {
    return 0;
  }
  if (a.value_class != b.value_class || a.value_class == Class::kMixed) {
    return kError;
  }
  return kTrue | kFalse;
}

/// The outcomes of `node` over a component's `ranges`, given those of
/// the nodes before it (its children) in `done`.
uint8_t Evaluate(const Node& node, const uint8_t* done,
                 std::span<const ColumnRange> ranges) {
  switch (node.kind) {
    case Node::Kind::kAnd:
      return And(done[node.left], done[node.right]);
    case Node::Kind::kOr:  // NOT (NOT a AND NOT b)
      return Not(And(Not(done[node.left]), Not(done[node.right])));
    case Node::Kind::kNot:
      return Not(done[node.left]);
    default:
      break;
  }
  if (node.column >= ranges.size() || node.other >= ranges.size()) {
    return kError;  // not the relation's layout; keep the component
  }
  const ColumnRange& range = ranges[node.column];
  switch (node.kind) {
    case Node::Kind::kCompare:
      return Compare(range, node);
    case Node::Kind::kIn:
      return node.negated ? Not(In(range, node.literals))
                          : In(range, node.literals);
    case Node::Kind::kIsNull: {
      const uint8_t o = static_cast<uint8_t>(
          (range.has_null ? kTrue : 0) |
          (range.value_class != Class::kNone ? kFalse : 0));
      return node.negated ? Not(o) : o;
    }
    default:  // kColumns
      return Columns(range, ranges[node.other]);
  }
}

/// One FROM item of a SELECT block: its relation and its columns under
/// the item's alias.
struct Source {
  std::string relation;  // lower-case
  Schema schema;
};

/// The source and column that `ref` names in a block: a single match
/// among all of the block's sources, or none.
std::optional<std::pair<size_t, size_t>> Resolve(
    const sql::ColumnRefExpr& ref, const std::vector<Source>& sources) {
  std::optional<std::pair<size_t, size_t>> found;
  size_t matches = 0;
  for (size_t s = 0; s < sources.size(); ++s) {
    size_t column = 0;
    const size_t n = sources[s].schema.Match(ref.name, ref.qualifier, &column);
    if (n > 0) found = std::make_pair(s, column);
    matches += n;
  }
  if (matches != 1) return std::nullopt;
  return found;
}

/// The value of a literal operand: a literal, or a unary minus on a
/// numeric one.
std::optional<Value> LiteralOf(const sql::Expr& expr) {
  if (expr.kind == sql::ExprKind::kLiteral) {
    return static_cast<const sql::LiteralExpr&>(expr).value;
  }
  if (expr.kind != sql::ExprKind::kUnary) return std::nullopt;
  const auto& unary = static_cast<const sql::UnaryExpr&>(expr);
  if (unary.op != sql::UnaryOp::kNegate) return std::nullopt;
  const std::optional<Value> value = LiteralOf(*unary.operand);
  if (!value.has_value()) return std::nullopt;
  if (value->type() == DataType::kInteger &&
      value->AsInteger() != std::numeric_limits<int64_t>::min()) {
    return Value::Integer(-value->AsInteger());
  }
  if (value->type() == DataType::kReal) return Value::Real(-value->AsReal());
  return std::nullopt;
}

bool IsComparison(sql::BinaryOp op) {
  return op == sql::BinaryOp::kEquals || op == sql::BinaryOp::kNotEquals ||
         op == sql::BinaryOp::kLess || op == sql::BinaryOp::kLessEquals ||
         op == sql::BinaryOp::kGreater || op == sql::BinaryOp::kGreaterEquals;
}

/// `op` with its operands swapped: literal < column is column > literal.
sql::BinaryOp Mirror(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kLess:
      return sql::BinaryOp::kGreater;
    case sql::BinaryOp::kLessEquals:
      return sql::BinaryOp::kGreaterEquals;
    case sql::BinaryOp::kGreater:
      return sql::BinaryOp::kLess;
    case sql::BinaryOp::kGreaterEquals:
      return sql::BinaryOp::kLessEquals;
    default:
      return op;
  }
}

/// Adds to `mask` the sources whose columns `expr` reads. False if a
/// reference names no single source of the block (an enclosing query's
/// column, say), or `expr` holds a subquery.
bool ReadSources(const sql::Expr& expr, const std::vector<Source>& sources,
                 uint64_t* mask) {
  if (expr.kind == sql::ExprKind::kInSubquery ||
      expr.kind == sql::ExprKind::kExists ||
      expr.kind == sql::ExprKind::kScalarSubquery) {
    return false;
  }
  if (expr.kind == sql::ExprKind::kColumnRef) {
    const auto at =
        Resolve(static_cast<const sql::ColumnRefExpr&>(expr), sources);
    if (!at.has_value()) return false;
    *mask |= uint64_t{1} << at->first;
    return true;
  }
  bool ok = true;
  engine::ForEachChildExpr(expr, [&](const sql::Expr& child) {
    ok = ok && ReadSources(child, sources, mask);
  });
  return ok;
}

/// Appends the nodes of `expr`, which reads only the columns of source
/// `source`, to `out`, its root last. False if `expr` is not one of the
/// analysed forms.
bool Compile(const sql::Expr& expr, const std::vector<Source>& sources,
             size_t source, Occurrence* out) {
  const auto column = [&](const sql::Expr& e) -> std::optional<size_t> {
    if (e.kind != sql::ExprKind::kColumnRef) return std::nullopt;
    const auto at = Resolve(static_cast<const sql::ColumnRefExpr&>(e), sources);
    if (!at.has_value() || at->first != source) return std::nullopt;
    return at->second;
  };
  Node node;
  switch (expr.kind) {
    case sql::ExprKind::kUnary: {
      const auto& unary = static_cast<const sql::UnaryExpr&>(expr);
      if (unary.op != sql::UnaryOp::kNot ||
          !Compile(*unary.operand, sources, source, out)) {
        return false;
      }
      node.kind = Node::Kind::kNot;
      node.left = out->size() - 1;
      break;
    }
    case sql::ExprKind::kBinary: {
      const auto& binary = static_cast<const sql::BinaryExpr&>(expr);
      if (binary.op == sql::BinaryOp::kAnd || binary.op == sql::BinaryOp::kOr) {
        if (!Compile(*binary.left, sources, source, out)) return false;
        node.left = out->size() - 1;
        if (!Compile(*binary.right, sources, source, out)) return false;
        node.right = out->size() - 1;
        node.kind = binary.op == sql::BinaryOp::kAnd ? Node::Kind::kAnd
                                                     : Node::Kind::kOr;
        break;
      }
      if (!IsComparison(binary.op)) return false;
      const std::optional<size_t> left = column(*binary.left);
      const std::optional<size_t> right = column(*binary.right);
      if (left.has_value() && right.has_value()) {
        node.kind = Node::Kind::kColumns;
        node.column = *left;
        node.other = *right;
        break;
      }
      std::optional<Value> literal =
          LiteralOf(left.has_value() ? *binary.right : *binary.left);
      if (!literal.has_value() || (!left.has_value() && !right.has_value())) {
        return false;
      }
      node = left.has_value()
                 ? Comparison(*left, binary.op, std::move(*literal))
                 : Comparison(*right, Mirror(binary.op), std::move(*literal));
      break;
    }
    case sql::ExprKind::kBetween: {
      // operand BETWEEN low AND high is operand >= low AND operand <= high,
      // both evaluated.
      const auto& between = static_cast<const sql::BetweenExpr&>(expr);
      const std::optional<size_t> operand = column(*between.operand);
      const std::optional<Value> low = LiteralOf(*between.low);
      const std::optional<Value> high = LiteralOf(*between.high);
      if (between.negated || !operand.has_value() || !low.has_value() ||
          !high.has_value()) {
        return false;
      }
      out->push_back(
          Comparison(*operand, sql::BinaryOp::kGreaterEquals, *low));
      out->push_back(Comparison(*operand, sql::BinaryOp::kLessEquals, *high));
      node.kind = Node::Kind::kAnd;
      node.left = out->size() - 2;
      node.right = out->size() - 1;
      break;
    }
    case sql::ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      const std::optional<size_t> operand = column(*in.operand);
      if (!operand.has_value()) return false;
      for (const sql::ExprPtr& item : in.items) {
        std::optional<Value> literal = LiteralOf(*item);
        if (!literal.has_value()) return false;
        node.literals.push_back(std::move(*literal));
      }
      node.kind = Node::Kind::kIn;
      node.column = *operand;
      node.negated = in.negated;
      break;
    }
    case sql::ExprKind::kIsNull: {
      const auto& is_null = static_cast<const sql::IsNullExpr&>(expr);
      const std::optional<size_t> operand = column(*is_null.operand);
      if (!operand.has_value()) return false;
      node.kind = Node::Kind::kIsNull;
      node.column = *operand;
      node.negated = is_null.negated;
      break;
    }
    default:
      return false;
  }
  out->push_back(std::move(node));
  return true;
}

/// The comparison class of a declared column type; kMixed for the NULL
/// type, which promises nothing.
Class DeclaredClass(DataType type) {
  switch (type) {
    case DataType::kInteger:
    case DataType::kReal:
      return Class::kNumeric;
    case DataType::kText:
      return Class::kText;
    case DataType::kBoolean:
      return Class::kBoolean;
    default:
      return Class::kMixed;
  }
}

/// True if `expr` compares a column of one source with a column of
/// another whose declared type shares its comparison class.
bool IsJoinCondition(const sql::Expr& expr,
                     const std::vector<Source>& sources) {
  if (expr.kind != sql::ExprKind::kBinary) return false;
  const auto& binary = static_cast<const sql::BinaryExpr&>(expr);
  if (!IsComparison(binary.op) ||
      binary.left->kind != sql::ExprKind::kColumnRef ||
      binary.right->kind != sql::ExprKind::kColumnRef) {
    return false;
  }
  const auto left =
      Resolve(static_cast<const sql::ColumnRefExpr&>(*binary.left), sources);
  const auto right =
      Resolve(static_cast<const sql::ColumnRefExpr&>(*binary.right), sources);
  if (!left.has_value() || !right.has_value()) return false;
  const Class a =
      DeclaredClass(sources[left->first].schema.column(left->second).type);
  const Class b =
      DeclaredClass(sources[right->first].schema.column(right->second).type);
  return a == b && a != Class::kMixed;
}

}  // namespace

bool RangeTests::MayKeep(std::span<const ColumnRange> ranges) const {
  if (occurrences_.empty()) return true;
  // Children come before their parents, so one pass in order evaluates
  // the tree; the last node is the root.
  constexpr size_t kInline = 16;
  uint8_t inline_done[kInline];
  std::vector<uint8_t> spilled;
  for (const Occurrence& occurrence : occurrences_) {
    uint8_t* done = inline_done;
    if (occurrence.size() > kInline) {
      spilled.resize(occurrence.size());
      done = spilled.data();
    }
    for (size_t i = 0; i < occurrence.size(); ++i) {
      done[i] = Evaluate(occurrence[i], done, ranges);
    }
    if (done[occurrence.size() - 1] & (kTrue | kError)) return true;
  }
  return false;
}

RowRelevance::RowRelevance(const sql::SelectStatement& stmt,
                           const Database& schemas) {
  ForEachSelectBlock(stmt, [&](const sql::SelectStatement& block) {
    AnalyseBlock(block, schemas);
  });
}

const RangeTests* RowRelevance::TestsFor(const std::string& relation) const {
  auto it = relations_.find(relation);
  if (it == relations_.end() || !it->second.has_value()) return nullptr;
  return &*it->second;
}

void RowRelevance::AnalyseBlock(const sql::SelectStatement& block,
                                const Database& schemas) {
  for (const sql::JoinClause& join : block.joins) {
    relations_[AsciiToLower(join.table.table_name)].reset();
  }
  // The planner pushes conjuncts down for at most 64 sources.
  bool analysed = block.joins.empty() && block.from.size() <= 64;
  std::vector<Source> sources;
  for (const sql::TableRef& ref : block.from) {
    Source source;
    source.relation = AsciiToLower(ref.table_name);
    Result<const Table*> table = schemas.GetRelation(ref.table_name);
    if (table.ok()) {
      source.schema = (*table)->schema().WithQualifier(ref.effective_alias());
    } else {
      analysed = false;
    }
    sources.push_back(std::move(source));
  }
  // Each occurrence's own conjuncts, ANDed left to right.
  std::vector<Occurrence> own(sources.size());
  if (analysed && block.where) {
    for (const sql::Expr* conjunct : engine::SplitConjuncts(*block.where)) {
      uint64_t mask = 0;
      analysed = ReadSources(*conjunct, sources, &mask) && mask != 0;
      if (analysed && std::has_single_bit(mask)) {
        const auto source = static_cast<size_t>(std::countr_zero(mask));
        Occurrence& tests = own[source];
        const size_t before = tests.size();
        analysed = Compile(*conjunct, sources, source, &tests);
        if (analysed && before > 0) {
          Node both;
          both.kind = Node::Kind::kAnd;
          both.left = before - 1;
          both.right = tests.size() - 1;
          tests.push_back(std::move(both));
        }
      } else if (analysed) {
        analysed = IsJoinCondition(*conjunct, sources);
      }
      if (!analysed) break;
    }
  }
  for (size_t s = 0; s < sources.size(); ++s) {
    std::optional<RangeTests>& tests =
        relations_.try_emplace(sources[s].relation, RangeTests())
            .first->second;
    if (!analysed || own[s].empty()) {
      tests.reset();
    } else if (tests.has_value()) {
      tests->occurrences_.push_back(std::move(own[s]));
    }
  }
}

}  // namespace maybms::worlds
