#include "engine/dml.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "base/string_util.h"
#include "engine/executor.h"
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "engine/prepared.h"

namespace maybms::engine {

namespace {

/// Coerces `v` for storage into a column of type `target`: exact type or
/// NULL passes through; integers widen to real. Anything else is an error
/// (no silent lossy conversions on the write path).
Result<Value> CoerceForColumn(const Value& v, DataType target,
                              const std::string& column_name) {
  if (v.is_null() || v.type() == target) return v;
  if (target == DataType::kReal && v.type() == DataType::kInteger) {
    return Value::Real(static_cast<double>(v.AsInteger()));
  }
  return Status::TypeError("value " + v.ToString() + " of type " +
                           DataTypeToString(v.type()) +
                           " cannot be stored in column " + column_name +
                           " of type " + DataTypeToString(target));
}

Result<std::vector<size_t>> ResolveTargetColumns(
    const Schema& schema, const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  if (names.empty()) {
    indices.resize(schema.num_columns());
    for (size_t i = 0; i < schema.num_columns(); ++i) indices[i] = i;
    return indices;
  }
  for (const std::string& name : names) {
    MAYBMS_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name));
    indices.push_back(idx);
  }
  return indices;
}

const std::vector<Constraint>& NoConstraints() {
  static const std::vector<Constraint> empty;
  return empty;
}

/// True if an assignment writes a column some constraint covers. A
/// constraint column the schema lacks counts as written, so the full
/// check still reports it.
bool WritesConstrainedColumn(
    const Schema& schema, const std::vector<Constraint>& constraints,
    const std::vector<std::pair<size_t, const sql::Expr*>>& assignments) {
  for (const Constraint& c : constraints) {
    for (const std::string& col : c.columns) {
      auto idx = schema.FindColumn(col);
      if (!idx.ok()) return true;
      for (const auto& assignment : assignments) {
        if (assignment.first == *idx) return true;
      }
    }
  }
  return false;
}

/// True if `expr` reads the current row alone: no subquery, no aggregate.
bool RowLocalExpr(const sql::Expr& expr) {
  return !ContainsSubquery(expr) && !ContainsAggregate(expr);
}

/// Hashes and compares rows on their key columns in place, so a key set
/// holds row pointers instead of projected tuples.
struct KeyHash {
  const std::vector<size_t>* indices;
  size_t operator()(const Tuple* row) const {
    size_t h = 0x811c9dc5;
    for (size_t i : *indices) {
      h ^= row->value(i).Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct KeyEqual {
  const std::vector<size_t>* indices;
  bool operator()(const Tuple* a, const Tuple* b) const {
    for (size_t i : *indices) {
      if (a->value(i).TotalOrderCompare(b->value(i)) != 0) return false;
    }
    return true;
  }
};

/// The first row (in row order) of [first_new, n) whose key repeats the
/// key of an earlier row, or n when all keys are distinct. Rows before
/// `first_new` are known to have distinct keys. O(n) expected time; the
/// key set holds the new rows only.
size_t FirstDuplicateKey(const std::vector<Tuple>& rows, size_t first_new,
                         const std::vector<size_t>& indices) {
  std::unordered_map<const Tuple*, size_t, KeyHash, KeyEqual> first_seen(
      rows.size() - first_new, KeyHash{&indices}, KeyEqual{&indices});
  size_t duplicate = rows.size();
  for (size_t r = first_new; r < rows.size(); ++r) {
    if (!first_seen.emplace(&rows[r], r).second) {
      duplicate = r;
      break;
    }
  }
  // A trusted row sharing a new key makes that key's first new row the
  // duplicate; only rows before the intra-batch one can still win.
  for (size_t r = 0; r < first_new && duplicate > first_new; ++r) {
    auto it = first_seen.find(&rows[r]);
    if (it != first_seen.end() && it->second < duplicate) {
      duplicate = it->second;
    }
  }
  return duplicate;
}

}  // namespace

Status CheckTableConstraints(const Table& table,
                             const std::vector<Constraint>& constraints,
                             size_t first_new) {
  const std::vector<Tuple>& rows = table.rows();
  for (const Constraint& c : constraints) {
    std::vector<size_t> indices;
    for (const std::string& col : c.columns) {
      auto idx = table.schema().FindColumn(col);
      if (!idx.ok()) return idx.status();
      indices.push_back(*idx);
    }
    if (c.kind == ConstraintKind::kNotNull ||
        c.kind == ConstraintKind::kPrimaryKey) {
      for (size_t r = first_new; r < rows.size(); ++r) {
        for (size_t i : indices) {
          if (rows[r].value(i).is_null()) {
            return Status::ConstraintViolation(
                "NULL value in column " + c.columns[0] +
                " violates a NOT NULL / PRIMARY KEY constraint");
          }
        }
      }
    }
    if (c.kind == ConstraintKind::kPrimaryKey ||
        c.kind == ConstraintKind::kUnique) {
      const size_t duplicate = FirstDuplicateKey(rows, first_new, indices);
      if (duplicate < rows.size()) {
        return Status::ConstraintViolation(
            "duplicate key " + rows[duplicate].Project(indices).ToString() +
            " violates " +
            (c.kind == ConstraintKind::kPrimaryKey ? "PRIMARY KEY"
                                                   : "UNIQUE") +
            " (" + Join(c.columns, ", ") + ")");
      }
    }
  }
  return Status::OK();
}

/// Schema-level plan for one DML statement. All members are resolved
/// against the schema database at preparation; Execute re-reads the
/// target relation from the world it is applied to.
class PreparedDmlImpl {
 public:
  sql::StatementKind kind = sql::StatementKind::kInsert;
  const sql::InsertStatement* insert = nullptr;
  // UPDATE/DELETE: the target and the WHERE clause (null: every row).
  const std::string* target_name = nullptr;
  const sql::Expr* where = nullptr;

  // Constraints of the target relation (borrowed from the catalog; the
  // empty list for DELETE).
  const std::vector<Constraint>* constraints = &NoConstraints();

  // INSERT: resolved target column indices + the prepared SELECT source.
  std::vector<size_t> targets;
  std::optional<PreparedSelect> insert_query;

  // UPDATE: resolved (column index, value expression) assignments, and
  // whether any of them writes a constrained column. When none does, the
  // pre-statement table already satisfied every constraint and so does
  // the updated one: the check is skipped.
  std::vector<std::pair<size_t, const sql::Expr*>> assignments;
  bool update_writes_constrained_column = true;

  bool row_local = false;  // see PreparedDml::row_local

  // Subquery plans for VALUES expressions / WHERE clauses, shared across
  // every world this statement executes in (results stay per world).
  SubqueryPlanCache plans;

  Status ExecuteInsert(Database* db);
  /// UPDATE and DELETE: PreparedDml::Rewrite, and Execute through it.
  Result<bool> Rewrite(const Database& db, const std::vector<Tuple>& rows,
                       std::vector<Tuple>* out);
  Status ExecuteRewrite(Database* db);
};

Status PreparedDmlImpl::ExecuteInsert(Database* db) {
  const sql::InsertStatement& stmt = *insert;
  MAYBMS_ASSIGN_OR_RETURN(const Table* existing,
                          db->GetRelation(stmt.table_name));
  Table updated = *existing;
  const Schema& schema = updated.schema();

  std::vector<Tuple> new_rows;
  if (insert_query.has_value()) {
    MAYBMS_ASSIGN_OR_RETURN(Table result, insert_query->Execute(*db));
    new_rows = std::move(*result.mutable_rows());
  } else {
    SubqueryCache subquery_cache(&plans);
    for (const auto& row_exprs : stmt.rows) {
      if (row_exprs.size() != targets.size()) {
        return Status::InvalidArgument("INSERT row arity mismatch: expected " +
                                       std::to_string(targets.size()));
      }
      Tuple row;
      EvalContext ctx{db, nullptr, nullptr, nullptr, nullptr,
                      &subquery_cache};
      for (const auto& e : row_exprs) {
        MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, ctx));
        row.Append(std::move(v));
      }
      new_rows.push_back(std::move(row));
    }
  }
  if (new_rows.empty()) return Status::OK();

  for (const Tuple& source : new_rows) {
    std::vector<Value> values(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < targets.size(); ++i) {
      size_t col = targets[i];
      MAYBMS_ASSIGN_OR_RETURN(
          values[col], CoerceForColumn(source.value(i), schema.column(col).type,
                                       schema.column(col).name));
    }
    MAYBMS_RETURN_NOT_OK(updated.Append(Tuple(std::move(values))));
  }

  // The existing rows satisfied every constraint before the statement:
  // only the appended rows are checked, against each other and the rest.
  MAYBMS_RETURN_NOT_OK(
      CheckTableConstraints(updated, *constraints, existing->num_rows()));
  db->PutRelation(stmt.table_name, std::move(updated));
  return Status::OK();
}

Result<bool> PreparedDmlImpl::Rewrite(const Database& db,
                                      const std::vector<Tuple>& rows,
                                      std::vector<Tuple>* out) {
  MAYBMS_ASSIGN_OR_RETURN(const Table* target, db.GetRelation(*target_name));
  const Schema& schema = target->schema();
  // The cache reads the relation as it was before the statement (in
  // `db`), so one cache serves the whole row loop. Rows are copied at the
  // first change only.
  SubqueryCache subquery_cache(&plans);
  bool changed = false;
  std::vector<Value> new_values;
  for (size_t r = 0; r < rows.size(); ++r) {
    EvalContext ctx{&db, &schema, &rows[r], nullptr, nullptr, &subquery_cache};
    bool match = true;
    if (where != nullptr) {
      MAYBMS_ASSIGN_OR_RETURN(Trivalent t, EvalPredicate(*where, ctx));
      match = t == Trivalent::kTrue;
    }
    if (kind == sql::StatementKind::kDelete) {
      if (match && !changed) {
        out->reserve(rows.size() - 1);
        out->assign(rows.begin(), rows.begin() + static_cast<long>(r));
        changed = true;
      } else if (!match && changed) {
        out->push_back(rows[r]);
      }
      continue;
    }
    if (!match) continue;
    // Evaluate all assignments against the pre-update row, then apply.
    new_values.clear();
    for (const auto& [idx, expr] : assignments) {
      MAYBMS_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, ctx));
      MAYBMS_ASSIGN_OR_RETURN(
          Value coerced,
          CoerceForColumn(v, schema.column(idx).type, schema.column(idx).name));
      new_values.push_back(std::move(coerced));
    }
    if (!changed) {
      *out = rows;
      changed = true;
    }
    for (size_t i = 0; i < assignments.size(); ++i) {
      (*out)[r].value(assignments[i].first) = std::move(new_values[i]);
    }
  }
  return changed;
}

Status PreparedDmlImpl::ExecuteRewrite(Database* db) {
  MAYBMS_ASSIGN_OR_RETURN(const Table* existing, db->GetRelation(*target_name));
  std::vector<Tuple> rows;
  MAYBMS_ASSIGN_OR_RETURN(const bool changed,
                          Rewrite(*db, existing->rows(), &rows));
  // A statement that changed nothing keeps the stored instance, so
  // sharing (and the paged store's dedup) survives it.
  if (!changed) return Status::OK();
  Table updated(existing->schema(), std::move(rows));
  if (kind == sql::StatementKind::kUpdate && update_writes_constrained_column) {
    MAYBMS_RETURN_NOT_OK(CheckTableConstraints(updated, *constraints));
  }
  db->PutRelation(*target_name, std::move(updated));
  return Status::OK();
}

PreparedDml::PreparedDml() : impl_(std::make_unique<PreparedDmlImpl>()) {}
PreparedDml::PreparedDml(PreparedDml&&) noexcept = default;
PreparedDml& PreparedDml::operator=(PreparedDml&&) noexcept = default;
PreparedDml::~PreparedDml() = default;

Result<PreparedDml> PreparedDml::Prepare(const sql::Statement& stmt,
                                         const Database& schema_db,
                                         const Catalog* catalog) {
  PreparedDml plan;
  PreparedDmlImpl& impl = *plan.impl_;
  impl.kind = stmt.kind;
  switch (stmt.kind) {
    case sql::StatementKind::kInsert: {
      const auto& insert = static_cast<const sql::InsertStatement&>(stmt);
      impl.insert = &insert;
      if (catalog == nullptr) {
        return Status::InvalidArgument("INSERT requires a catalog");
      }
      impl.constraints = &catalog->ConstraintsFor(insert.table_name);
      MAYBMS_ASSIGN_OR_RETURN(const Table* existing,
                              schema_db.GetRelation(insert.table_name));
      MAYBMS_ASSIGN_OR_RETURN(
          impl.targets,
          ResolveTargetColumns(existing->schema(), insert.columns));
      if (insert.query) {
        MAYBMS_ASSIGN_OR_RETURN(
            PreparedSelect query,
            PreparedSelect::Prepare(*insert.query, schema_db));
        if (query.output_schema().num_columns() != impl.targets.size()) {
          return Status::InvalidArgument(
              "INSERT ... SELECT column count mismatch");
        }
        impl.insert_query = std::move(query);
      }
      impl.row_local = !insert.query && impl.constraints->empty() &&
                       std::none_of(insert.rows.begin(), insert.rows.end(),
                                    [](const auto& row) {
                                      return std::any_of(
                                          row.begin(), row.end(),
                                          [](const auto& e) {
                                            return ContainsSubquery(*e);
                                          });
                                    });
      return plan;
    }
    case sql::StatementKind::kUpdate: {
      const auto& update = static_cast<const sql::UpdateStatement&>(stmt);
      impl.target_name = &update.table_name;
      impl.where = update.where.get();
      if (catalog == nullptr) {
        return Status::InvalidArgument("UPDATE requires a catalog");
      }
      impl.constraints = &catalog->ConstraintsFor(update.table_name);
      MAYBMS_ASSIGN_OR_RETURN(const Table* existing,
                              schema_db.GetRelation(update.table_name));
      for (const auto& [col, expr] : update.assignments) {
        MAYBMS_ASSIGN_OR_RETURN(size_t idx,
                                existing->schema().FindColumn(col));
        impl.assignments.emplace_back(idx, expr.get());
      }
      impl.update_writes_constrained_column = WritesConstrainedColumn(
          existing->schema(), *impl.constraints, impl.assignments);
      impl.row_local =
          !impl.update_writes_constrained_column &&
          (!update.where || RowLocalExpr(*update.where)) &&
          std::all_of(impl.assignments.begin(), impl.assignments.end(),
                      [](const auto& a) { return RowLocalExpr(*a.second); });
      return plan;
    }
    case sql::StatementKind::kDelete: {
      const auto& del = static_cast<const sql::DeleteStatement&>(stmt);
      impl.target_name = &del.table_name;
      impl.where = del.where.get();
      MAYBMS_RETURN_NOT_OK(
          schema_db.GetRelation(del.table_name).status());
      impl.row_local = !del.where || RowLocalExpr(*del.where);
      return plan;
    }
    default:
      return Status::InvalidArgument("not a DML statement");
  }
}

Status PreparedDml::Execute(Database* db) {
  switch (impl_->kind) {
    case sql::StatementKind::kInsert:
      return impl_->ExecuteInsert(db);
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete:
      return impl_->ExecuteRewrite(db);
    default:
      return Status::InvalidArgument("not a DML statement");
  }
}

bool PreparedDml::row_local() const { return impl_->row_local; }

Result<bool> PreparedDml::Rewrite(const Database& db,
                                  const std::vector<Tuple>& rows,
                                  std::vector<Tuple>* out) {
  if (impl_->target_name == nullptr) {
    return Status::InvalidArgument("only UPDATE and DELETE rewrite rows");
  }
  return impl_->Rewrite(db, rows, out);
}

Status ExecuteInsert(const sql::InsertStatement& stmt, Database* db,
                     const Catalog& catalog) {
  MAYBMS_ASSIGN_OR_RETURN(PreparedDml plan,
                          PreparedDml::Prepare(stmt, *db, &catalog));
  return plan.Execute(db);
}

Status ExecuteUpdate(const sql::UpdateStatement& stmt, Database* db,
                     const Catalog& catalog) {
  MAYBMS_ASSIGN_OR_RETURN(PreparedDml plan,
                          PreparedDml::Prepare(stmt, *db, &catalog));
  return plan.Execute(db);
}

Status ExecuteDelete(const sql::DeleteStatement& stmt, Database* db) {
  MAYBMS_ASSIGN_OR_RETURN(PreparedDml plan,
                          PreparedDml::Prepare(stmt, *db, nullptr));
  return plan.Execute(db);
}

Result<Table> BuildTableFromDefinition(const sql::CreateTableStatement& stmt) {
  Schema schema;
  for (const sql::ColumnDef& col : stmt.columns) {
    schema.AddColumn(Column(col.name, col.type));
  }
  return Table(std::move(schema));
}

std::vector<Constraint> CollectConstraints(
    const sql::CreateTableStatement& stmt) {
  std::vector<Constraint> constraints;
  for (const sql::ColumnDef& col : stmt.columns) {
    if (col.primary_key) {
      constraints.push_back(Constraint{ConstraintKind::kPrimaryKey, {col.name}});
    }
    if (col.unique) {
      constraints.push_back(Constraint{ConstraintKind::kUnique, {col.name}});
    }
    if (col.not_null && !col.primary_key) {
      constraints.push_back(Constraint{ConstraintKind::kNotNull, {col.name}});
    }
  }
  for (const Constraint& c : stmt.table_constraints) constraints.push_back(c);
  return constraints;
}

}  // namespace maybms::engine
