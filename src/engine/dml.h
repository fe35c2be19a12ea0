#ifndef MAYBMS_ENGINE_DML_H_
#define MAYBMS_ENGINE_DML_H_

#include <memory>
#include <vector>

#include "base/result.h"
#include "sql/ast.h"
#include "storage/catalog.h"

namespace maybms::engine {

class PreparedDmlImpl;

/// One INSERT/UPDATE/DELETE statement planned against schemas: target
/// columns and SET assignments resolved, the INSERT ... SELECT source
/// prepared, and the statement's constraint list looked up — once per
/// statement instead of once per world. Execute applies the statement to
/// one world's database; like the prepared select plans (engine/
/// prepared.h), a PreparedDml captures schema-level state only and may be
/// executed against every world of a world-set. The statement and the
/// catalog must outlive the plan.
class PreparedDml {
 public:
  /// `catalog` may be null for DELETE (which checks no constraints); it is
  /// required for INSERT/UPDATE.
  static Result<PreparedDml> Prepare(const sql::Statement& stmt,
                                     const Database& schema_db,
                                     const Catalog* catalog);

  PreparedDml(PreparedDml&&) noexcept;
  PreparedDml& operator=(PreparedDml&&) noexcept;
  ~PreparedDml();

  /// Applies the statement to one world. On any error the world is left
  /// unmodified: the new contents of the target relation are computed on
  /// the side and published with a single PutRelation handle swap
  /// (storage/catalog.h) — the stored instance is never mutated in
  /// place, so executing against a copy-on-write snapshot can never leak
  /// partial results into worlds sharing the same table.
  Status Execute(Database* db);

  /// True if the statement changes each row of its target from that row
  /// alone and needs no constraint check: an UPDATE or DELETE whose WHERE
  /// and SET have no subquery and no aggregate and that writes no
  /// constrained column, or an INSERT ... VALUES without subqueries into
  /// a relation without constraints. Such a statement distributes over
  /// any split of its target's rows (worlds/decomposed_world_set.cc).
  bool row_local() const;

  /// Applies an UPDATE or DELETE to `rows`, rows of its target relation in
  /// `db` (one world's instance of it, or any part of one): true, with
  /// the new rows in `*out`, if it changed any; false, leaving `*out`
  /// alone, if not. Subqueries read `db`; no constraint is checked. The
  /// error is the first failing row's, in row order, as in Execute.
  Result<bool> Rewrite(const Database& db, const std::vector<Tuple>& rows,
                       std::vector<Tuple>* out);

 private:
  PreparedDml();
  std::unique_ptr<PreparedDmlImpl> impl_;
};

/// Verifies every declared constraint of `table` (primary key uniqueness +
/// NOT NULL, UNIQUE, NOT NULL columns). Returns ConstraintViolation with a
/// description of the first violated constraint.
///
/// Rows before `first_new` are trusted to satisfy the constraints already
/// (the table as it was before a statement appended rows); only rows from
/// `first_new` on are checked, against each other and against the trusted
/// keys, in O(rows) expected time with a key set over the new rows only.
/// The reported violation is the one a row-order scan of the whole table
/// meets first. `first_new` = 0 checks the whole table.
Status CheckTableConstraints(const Table& table,
                             const std::vector<Constraint>& constraints,
                             size_t first_new = 0);

/// Executes INSERT against one world. Values are type-checked/coerced to
/// the column types; constraints from `catalog` are verified afterwards.
/// On any error the world is left unmodified. Single-shot wrapper over
/// PreparedDml.
Status ExecuteInsert(const sql::InsertStatement& stmt, Database* db,
                     const Catalog& catalog);

/// Executes UPDATE against one world; constraint-checked like insert.
Status ExecuteUpdate(const sql::UpdateStatement& stmt, Database* db,
                     const Catalog& catalog);

/// Executes DELETE against one world.
Status ExecuteDelete(const sql::DeleteStatement& stmt, Database* db);

/// Creates an empty table with the declared schema in one world and
/// registers its constraints in `catalog` (idempotent per world; the
/// caller registers constraints once).
Result<Table> BuildTableFromDefinition(const sql::CreateTableStatement& stmt);

/// Collects the constraints declared by a CREATE TABLE statement (column
/// shorthands plus table-level constraints).
std::vector<Constraint> CollectConstraints(
    const sql::CreateTableStatement& stmt);

}  // namespace maybms::engine

#endif  // MAYBMS_ENGINE_DML_H_
