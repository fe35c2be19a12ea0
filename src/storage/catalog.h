#ifndef MAYBMS_STORAGE_CATALOG_H_
#define MAYBMS_STORAGE_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/dcheck.h"
#include "base/parallel_region.h"
#include "base/result.h"
#include "storage/layout_guard.h"
#include "storage/table.h"

namespace maybms {

/// The relation contents of one possible world: relation name -> instance.
/// Names are case-insensitive (stored lower-cased, original case kept in
/// the table's display name map).
///
/// Storage invariant — copy-on-write structural sharing:
///  * Entries hold `std::shared_ptr<const Table>`. Copying a Database
///    copies handles, never rows: a World/Database copy is O(#relations)
///    pointer bumps, so the explicit engine's repair/choice fan-out and
///    snapshot-style writers share every untouched relation between
///    parent and derived worlds.
///  * Tables are IMMUTABLE once shared; mutate only through
///    MutableRelation(), which clones the instance first iff any other
///    Database (or handle holder) still references it. Writers that
///    rebuild a relation wholesale use PutRelation(), which swaps the
///    handle without touching the old instance.
///  * GetRelation() borrows a raw `const Table*` through the handle — no
///    refcount churn in per-world read loops (the prepared-statement View
///    fast path depends on this).
///
/// Concurrency invariant (parallel per-world execution,
/// base/thread_pool.h): a Database that is visible to more than one
/// thread is READ-ONLY for the duration of the parallel region — workers
/// only ever copy it (handle bumps; shared_ptr refcounts are atomic) and
/// mutate their private copies. GetRelation's borrowed pointer is safe
/// precisely because no concurrent PutRelation/MutableRelation/
/// DropRelation may swap the handle out from under it: all writes to a
/// shared Database (world commit, catalog swap) happen single-threaded,
/// after the parallel loop has joined. A worker's MutableRelation on its
/// private copy always clones, never mutates in place, because the
/// parent's handle keeps the use count above one. The TSan CI job runs
/// the world-storage and parallel-execution suites against this contract.
///
/// Debug enforcement (compiled out in Release):
///  * Parallel-region trap: every Database is stamped with the region
///    token (base/parallel_region.h) under which it was constructed or
///    assigned. MutableRelation/PutRelation/DropRelation trap when called
///    inside a parallel region on a Database the executing thread did not
///    itself create within that region — i.e. on anything shared across
///    the region, such as the live world vector a commit path must only
///    touch after the join. Whole-object assignment re-stamps and does
///    not trap (scattering results into a pre-sized commit log, each slot
///    touched by exactly one thread, is the sanctioned writer pattern).
///  * COW trap: Table's debug shared-marker (storage/table.h) is set by
///    Database copies and shared-handle stores, and cleared only by
///    MutableRelation once unique ownership is established, so in-place
///    mutation of an instance other worlds still see aborts immediately.
/// tests/invariant_traps_test.cc proves both traps fire. The Debug members
/// change the layout: a program must be compiled with the library's
/// NDEBUG setting, and a mix fails to link (storage/layout_guard.h).
class Database {
 public:
  /// Shared, immutable relation instance. The same handle may be stored
  /// in any number of Databases (worlds).
  using TableHandle = std::shared_ptr<const Table>;

  Database() = default;

#ifndef NDEBUG
  // Hand-written only in Debug: stamp with the CURRENT region token
  // (never the source's) and maintain the tables' shared-markers. Release
  // keeps the implicit members.
  Database(const Database& other) : relations_(other.relations_) {
    DebugMarkTablesShared();
  }
  Database& operator=(const Database& other) {
    relations_ = other.relations_;
    debug_region_token_ = base::CurrentRegionToken();
    DebugMarkTablesShared();
    return *this;
  }
  Database(Database&& other) noexcept : relations_(std::move(other.relations_)) {}
  Database& operator=(Database&& other) noexcept {
    relations_ = std::move(other.relations_);
    debug_region_token_ = base::CurrentRegionToken();
    return *this;
  }
#endif

  bool HasRelation(const std::string& name) const;

  /// Returns the relation or NotFound. Borrows through the shared handle;
  /// the pointer is invalidated by PutRelation/MutableRelation/
  /// DropRelation on the same name.
  Result<const Table*> GetRelation(const std::string& name) const;

  /// Returns the owning handle (shares the instance); used to store one
  /// result relation into many worlds without copying rows.
  Result<TableHandle> GetRelationHandle(const std::string& name) const;

  /// Copy-on-unshared-write accessor: returns a mutable pointer to this
  /// Database's private instance of the relation, cloning the rows first
  /// iff the instance is shared with anyone else. The only sanctioned way
  /// to mutate a stored table in place.
  Result<Table*> MutableRelation(const std::string& name);

  /// Adds or replaces a relation (wraps the value in a fresh handle).
  void PutRelation(const std::string& name, Table table);

  /// Adds or replaces a relation, sharing an existing instance.
  void PutRelation(const std::string& name, TableHandle table);

  Status DropRelation(const std::string& name);

  /// Relation names in deterministic (sorted) order, original case.
  std::vector<std::string> RelationNames() const;

  size_t num_relations() const { return relations_.size(); }

  /// Two worlds are equal iff they have the same relations with set-equal
  /// contents. Used by group-worlds-by and tests.
  bool ContentEquals(const Database& other) const;

 private:
  struct Entry {
    std::string display_name;
    TableHandle table;
  };

#ifndef NDEBUG
  /// Traps when a mutating entry point runs inside a parallel region on a
  /// Database this thread did not create within that region.
  void AssertMutableInRegion() const {
    MAYBMS_DCHECK(base::CurrentRegionToken() == 0 ||
                      debug_region_token_ == base::CurrentRegionToken(),
                  "Database mutated during a parallel region — shared "
                  "Databases are READ-ONLY while a ParallelFor runs; "
                  "workers may only mutate copies they created inside the "
                  "region, and commits must happen after the join "
                  "(storage/catalog.h concurrency invariant)");
  }
  /// After a Database copy, every instance is reachable from both sides.
  void DebugMarkTablesShared() const {
    for (const auto& [key, entry] : relations_) entry.table->DebugMarkShared();
  }
#else
  void AssertMutableInRegion() const {}
  void DebugMarkTablesShared() const {}
#endif

  std::map<std::string, Entry> relations_;  // key: lower-cased name
#ifndef NDEBUG
  // Region token (base/parallel_region.h) current when this Database was
  // constructed/assigned; 0 when created outside any parallel region.
  uint64_t debug_region_token_ = base::CurrentRegionToken();
#endif
};

/// Kinds of integrity constraints enforced on insert/update.
enum class ConstraintKind {
  kPrimaryKey,  // uniqueness + NOT NULL on the key columns
  kUnique,
  kNotNull,
};

/// A declared constraint over named columns of one table.
struct Constraint {
  ConstraintKind kind = ConstraintKind::kUnique;
  std::vector<std::string> columns;
};

/// World-set-level metadata shared by all worlds: which constraints each
/// relation carries. (Relation *schemas* travel with the Table instances;
/// view definitions live in the isql layer because views may contain
/// world-set operations.)
class Catalog {
 public:
  void AddConstraint(const std::string& table_name, Constraint constraint);

  const std::vector<Constraint>& ConstraintsFor(
      const std::string& table_name) const;

  void DropConstraints(const std::string& table_name);

  /// Full constraint map (lower-cased table name -> constraints), in
  /// deterministic order; used by the durable-storage metadata round trip.
  const std::map<std::string, std::vector<Constraint>>& AllConstraints() const;

  /// Drops every constraint (snapshot restore replaces them wholesale).
  void Clear();

 private:
  std::map<std::string, std::vector<Constraint>> constraints_;  // lower-case
};

}  // namespace maybms

#endif  // MAYBMS_STORAGE_CATALOG_H_
