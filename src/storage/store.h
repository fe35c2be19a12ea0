#ifndef MAYBMS_STORAGE_STORE_H_
#define MAYBMS_STORAGE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/paged_table.h"
#include "storage/snapshot.h"

namespace maybms::storage {

/// Durable world-set store: one append-only paged file holding shared
/// table page runs, plus a commit manifest, behind a ping-pong pair of
/// root slots (shadow paging).
///
/// File layout:
///   page 0, 1        root slots. Each is a slotted page whose single
///                    record is {root magic, generation, manifest start,
///                    manifest page count, next free page}. A commit of
///                    generation g writes slot g % 2 — the OTHER slot
///                    (the previous commit) is never touched.
///   pages 2..        data: table runs, tuple runs, manifest runs,
///                    append-only in commit order. A run is a list of
///                    page extents (paged_table.h), and pages may be
///                    shared by the runs of several generations.
///
/// Commit protocol (all-or-nothing; fault-injection-proven by
/// tests/storage_recovery_test.cc at every kill point):
///   1. append page runs for every table instance and every decomposed
///      component instance not already persisted. Instances are
///      pointer-deduped against the last committed generation through one
///      map keyed on the immutable instances, so an unchanged relation
///      shared by many worlds, or an unchanged component, is neither
///      rewritten nor duplicated. A table instance that is new is diffed
///      against its predecessor — the instance the last generation bound
///      to the same name in the same place (the certain core, or the same
///      world) — and only the pages whose rows changed are re-encoded;
///      the predecessor's other pages are reused as they are. So a
///      statement that changes one row writes a few pages of that
///      relation and the manifest;
///   2. append the manifest (the DurableSnapshot skeleton: world/
///      component structure, run extents, metadata);
///   3. FlushAll + fsync            — every new page durable;
///   4. write root slot (g+1) % 2 + fsync — the atomic switch.
/// A crash anywhere before step 4's fsync completes leaves the previous
/// root slot intact and pointing at fully-durable pages: reopen recovers
/// the exact pre-commit state. Nothing referenced by a durable root is
/// ever overwritten: reused pages are only read, and new pages are taken
/// above every page a root may reference. Dead pages from failed or
/// superseded commits are simply unreferenced (no compaction yet — see
/// docs/architecture.md).
///
/// Recovery (Open): read both root slots; the valid-checksum slot with
/// the highest generation wins. Both invalid means no commit ever
/// completed — an empty store (the pre-first-commit state), which is the
/// correct recovery for a crash during the very first commit. Any
/// corruption BELOW a valid root (manifest or data pages) is detected by
/// the page checksums and the manifest's bounds checks at Load and
/// reported as kDataLoss — never silently read. So is a manifest in the
/// older contiguous-run format.
class PagedStore {
 public:
  /// Opens (creating if absent) the store file and recovers the latest
  /// committed root.
  static Result<std::unique_ptr<PagedStore>> Open(const std::string& path,
                                                  size_t pool_pages);

  /// True once some generation has committed (now or in a past process).
  bool has_data() const { return has_data_; }
  uint64_t generation() const { return generation_; }

  /// Durably commits the snapshot as the next generation. On failure the
  /// store (in memory and on disk) still presents the previous
  /// generation — or, after a failed final fsync, possibly the complete
  /// new one — and Commit may simply be retried; a retry writes fresh
  /// pages, never those of the failed attempt.
  Status Commit(const DurableSnapshot& snapshot);

  /// Materializes the committed generation. Also primes the pointer-dedup
  /// map with the returned table handles, so a following Commit only
  /// writes tables that changed since the load.
  Result<DurableSnapshot> Load();

  /// Binds the components of `restored` — the snapshot of the world-set
  /// rebuilt from the last Load — to the runs Load read them from, by
  /// position, so the next Commit writes none of them. A component whose
  /// alternative, contribution or row counts differ from what was loaded
  /// stays unbound and is written again.
  void AdoptLoadedComponents(const DurableSnapshot& restored);

  BufferPool* pool() { return &pool_; }
  File* file() { return file_.get(); }

  /// Introspection for tests: the page runs each persisted instance — a
  /// table or a component — maps to, one entry per run (a component has
  /// one run per alternative contribution). Incremental commits reuse
  /// these.
  std::vector<std::pair<const void*, PageRun>> PersistedRuns() const;

 private:
  PagedStore(std::unique_ptr<File> file, size_t pool_pages)
      : file_(std::move(file)), pool_(file_.get(), pool_pages) {}

  struct RootRecord {
    uint64_t generation = 0;
    uint64_t manifest_start = 0;
    uint64_t manifest_pages = 0;
    uint64_t next_free_page = 0;
  };

  /// Reads root slot 0 or 1 directly (not via the pool — root pages are
  /// the only pages ever overwritten, so they must not be cached).
  Result<RootRecord> ReadRootSlot(uint64_t slot) const;
  Status WriteRootSlot(const RootRecord& root);

  struct RunInfo {
    // A table: its one run. A component: one run per contribution, in
    // alternative order, then contribution order.
    std::vector<PageRun> runs;
    // A table: the per-page fills of its run, and the instance itself, so
    // a successor can be diffed against its rows.
    std::vector<PageFill> fills;
    const Table* table = nullptr;
    // Keeps the instance alive so its address stays a unique key.
    std::shared_ptr<const void> keepalive;
  };

  /// Where a relation is bound: 0 for the certain core, w + 1 for world
  /// w, with its name.
  using Binding = std::pair<size_t, std::string>;

  std::unique_ptr<File> file_;
  BufferPool pool_;

  bool has_data_ = false;
  RootRecord root_;
  uint64_t generation_ = 0;
  uint64_t next_free_page_ = 2;  // pages 0,1 are the root slots

  /// Pointer-dedup across commits: table and component instances already
  /// durable under the committed root.
  std::map<const void*, RunInfo> persisted_;

  /// The table instance the committed generation binds at each place:
  /// the predecessors a Commit diffs new instances against.
  std::map<Binding, const void*> bindings_;

  /// The runs of each component the last Load read, in manifest order,
  /// until AdoptLoadedComponents binds them or a Commit supersedes them.
  struct LoadedComponent {
    size_t alternatives = 0;
    std::vector<PageRun> runs;
  };
  std::vector<LoadedComponent> loaded_components_;
};

}  // namespace maybms::storage

#endif  // MAYBMS_STORAGE_STORE_H_
