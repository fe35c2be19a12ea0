#ifndef MAYBMS_STORAGE_SNAPSHOT_H_
#define MAYBMS_STORAGE_SNAPSHOT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/catalog.h"
#include "types/tuple.h"

namespace maybms::storage {

/// Engine-neutral durable form of a world-set: what PagedStore writes at
/// commit and what WorldSet::FromSnapshot restores after reopen. A paged
/// session builds one per mutating statement from the new state and
/// commits it; nothing is read back until the next restart.
///
/// Table instances are POINTER-DEDUPED: each distinct `const Table*`
/// reachable from the world-set appears exactly once in `tables`, and
/// worlds/certain refer to it by index. Restoring rebuilds one shared
/// instance per index, so the exact copy-on-write sharing structure —
/// which worlds share which relation instances — survives a restart, and
/// so a relation shared by 1000 worlds is stored once, not 1000 times.
///
/// A table instance the last commit did not write is diffed against the
/// instance that commit bound to the same relation name in the same place
/// (the certain core, or the same world index), and only the pages whose
/// rows changed are written; so the names and places in `certain` and
/// `worlds` matter to the cost of a commit, not just to its content.
///
/// Decomposed alternatives' contributions are schema-less tuple vectors
/// (the relation's schema lives with the certain-core instance), stored
/// as dedicated page runs. Each component also carries the immutable
/// in-memory instance it was taken from; PagedStore::Commit keys its
/// dedup map on it exactly as on table handles, so a component the
/// previous commit already wrote costs no pages. Load cannot know those
/// instances and leaves them null; once the world-set is rebuilt, the
/// session passes its snapshot to PagedStore::AdoptLoadedComponents,
/// which binds the new instances to the loaded runs.
///
/// Probabilities are doubles carried verbatim (bit patterns on disk);
/// restore assigns them directly WITHOUT renormalizing, so restored
/// results are byte-identical to pre-restart ones.
struct DurableSnapshot {
  /// EngineName() of the world-set this snapshot came from; FromSnapshot
  /// rejects a snapshot taken from the other engine.
  std::string engine;

  /// Deduped shared relation instances.
  std::vector<Database::TableHandle> tables;

  /// One named relation of one database: original-case name + index into
  /// `tables`.
  struct RelationRef {
    std::string name;
    size_t table_index = 0;
  };

  /// Explicit engine: one entry per world, in world order.
  struct WorldRef {
    double probability = 1.0;
    std::vector<RelationRef> relations;
  };
  std::vector<WorldRef> worlds;

  /// Decomposed engine: the certain core...
  std::vector<RelationRef> certain;

  /// ...and the components, in order. Contribution keys are the
  /// lower-cased relation names (worlds/component.h).
  struct AlternativeRef {
    double probability = 1.0;
    std::vector<std::pair<std::string, std::vector<Tuple>>> contributions;
  };
  struct ComponentRef {
    std::vector<AlternativeRef> alternatives;
    /// The immutable component these alternatives were copied from, or
    /// null (always written). Two refs with the same instance must carry
    /// the same alternatives.
    std::shared_ptr<const void> instance;
  };
  std::vector<ComponentRef> components;

  /// Session-level metadata (e.g. constraint declarations), ordered KV.
  /// Opaque to the store; the session layer owns the encoding.
  std::vector<std::pair<std::string, std::string>> metadata;
};

}  // namespace maybms::storage

#endif  // MAYBMS_STORAGE_SNAPSHOT_H_
