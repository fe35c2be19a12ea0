#ifndef MAYBMS_STORAGE_TABLE_H_
#define MAYBMS_STORAGE_TABLE_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "base/dcheck.h"
#include "base/result.h"
#include "storage/layout_guard.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace maybms {

/// An in-memory relation instance: a schema plus a bag of tuples.
///
/// SQL evaluation uses bag semantics; the world-set operations of I-SQL
/// (possible/certain/conf and world comparison) use the set view obtained
/// via SortedDistinct()/ContainsTuple(). Tables are value types — copying
/// a Table copies its rows, which is exactly what per-world semantics
/// require.
///
/// Debug shared-marker (copy-on-write enforcement): in Debug builds every
/// Table carries a marker that Database sets whenever the instance becomes
/// reachable from more than one handle (a Database copy, a stored shared
/// handle, a borrowed GetRelationHandle). Every mutating entry point traps
/// via MAYBMS_DCHECK while the marker is set, so a clone-on-unshared-write
/// violation — mutating an instance other worlds still see — aborts with a
/// message instead of silently corrupting sibling worlds.
/// Database::MutableRelation clears the marker once it has established
/// unique ownership; copying a Table yields a fresh, unmarked instance.
/// Release builds compile all of this out, so the layout depends on
/// NDEBUG: compile against the library with its own NDEBUG setting
/// (a mix fails to link, storage/layout_guard.h).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

#ifndef NDEBUG
  // A copy is a brand-new unshared instance regardless of the source's
  // marker; moving FROM a shared instance is itself a mutation and traps.
  // (Hand-written only in Debug so Release keeps the implicit members.)
  Table(const Table& other) : schema_(other.schema_), rows_(other.rows_) {}
  Table& operator=(const Table& other) {
    AssertUnshared();
    schema_ = other.schema_;
    rows_ = other.rows_;
    return *this;
  }
  Table(Table&& other) noexcept
      : schema_((other.AssertUnshared(), std::move(other.schema_))),
        rows_(std::move(other.rows_)) {}
  Table& operator=(Table&& other) noexcept {
    AssertUnshared();
    other.AssertUnshared();
    schema_ = std::move(other.schema_);
    rows_ = std::move(other.rows_);
    return *this;
  }
#endif

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() {
    AssertUnshared();
    return &schema_;
  }

  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }
  std::vector<Tuple>* mutable_rows() {
    AssertUnshared();
    return &rows_;
  }

  /// Appends a row; validates arity (types are checked by the caller that
  /// produced the tuple).
  [[nodiscard]] Status Append(Tuple row);

  /// Appends without arity checks (internal fast path).
  void AppendUnchecked(Tuple row) {
    AssertUnshared();
    rows_.push_back(std::move(row));
  }

  void Clear() {
    AssertUnshared();
    rows_.clear();
  }

  /// Returns a copy with rows sorted and duplicates removed.
  Table SortedDistinct() const;

  /// Sorts rows in place (total order); used for canonical comparison.
  void SortRows();

  /// In-place duplicate elimination (sorts first).
  void DeduplicateRows();

  bool ContainsTuple(const Tuple& t) const;

  /// Set-equality of the two tables' rows (ignores duplicates and order);
  /// schemas must have equal arity.
  bool SetEquals(const Table& other) const;

  /// Bag-equality after canonical sorting.
  bool BagEquals(const Table& other) const;

  /// Multi-line textual rendering with a header; used by the formatter.
  std::string ToString() const;

  /// Debug-only COW markers (no-ops in Release); maintained by Database.
  /// Marking is idempotent and thread-safe: parallel workers copying the
  /// same parent Database mark its instances concurrently.
  void DebugMarkShared() const {
#ifndef NDEBUG
    debug_shared_.store(true, std::memory_order_relaxed);
#endif
  }
  void DebugMarkUnshared() const {
#ifndef NDEBUG
    debug_shared_.store(false, std::memory_order_relaxed);
#endif
  }

 private:
  void AssertUnshared() const {
#ifndef NDEBUG
    MAYBMS_DCHECK(!debug_shared_.load(std::memory_order_relaxed),
                  "Table mutated while shared between worlds — the "
                  "copy-on-write invariant (storage/catalog.h) requires "
                  "cloning via Database::MutableRelation first");
#endif
  }

  Schema schema_;
  std::vector<Tuple> rows_;
#ifndef NDEBUG
  // Set while this instance is (potentially) reachable from more than one
  // TableHandle; mutable so const Databases can mark on copy.
  mutable std::atomic<bool> debug_shared_{false};
#endif
};

}  // namespace maybms

#endif  // MAYBMS_STORAGE_TABLE_H_
