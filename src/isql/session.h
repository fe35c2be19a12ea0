#ifndef MAYBMS_ISQL_SESSION_H_
#define MAYBMS_ISQL_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "base/query_context.h"
#include "base/result.h"
#include "isql/query_result.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "storage/store.h"
#include "worlds/world_set.h"

namespace maybms::isql {

/// Which world-set representation backs the session.
enum class EngineMode {
  kExplicit,    // one materialized database per world (baseline)
  kDecomposed,  // MayBMS world-set decomposition
};

/// Which table storage backs the session's world-set.
enum class StorageMode {
  kDefault,  // the MAYBMS_STORAGE environment variable; memory if unset
  kMemory,   // in-memory tables only (no durability)
  kPaged,    // durable paged storage (storage/store.h): every mutating
             // statement commits its new state before the session
             // adopts it; reads run on the in-memory tables
};

struct SessionOptions {
  EngineMode engine = EngineMode::kDecomposed;

  /// Maintain a published SessionSnapshot (see below) that is rebuilt
  /// after every successful mutating statement. Readers on other threads
  /// may then PinSnapshot() and evaluate SELECTs against it concurrently
  /// with (exactly one) writer executing statements on the session.
  /// Off by default: embedded single-threaded sessions skip building a
  /// snapshot per commit.
  bool publish_snapshots = false;

  /// Table storage backend. kDefault resolves MAYBMS_STORAGE
  /// ("memory"/"paged"); unset means memory.
  StorageMode storage = StorageMode::kDefault;

  /// Directory for the paged store's file. Empty resolves
  /// MAYBMS_STORAGE_DIR; if that is unset too, the session creates a
  /// private temp directory and removes it on destruction (an explicit
  /// directory is how callers opt into persistence across sessions).
  std::string storage_dir;

  /// Buffer-pool budget in pages for paged storage (0 resolves
  /// MAYBMS_POOL_PAGES; unset means 1024). A hard cap: the pool never
  /// holds more than this many pages in memory.
  size_t pool_pages = 0;

  /// Cap on per-world answers rendered/returned by SELECT queries.
  size_t max_display_worlds = 64;

  /// Worker threads for per-world execution loops (0 = the MAYBMS_THREADS
  /// environment variable, else the hardware concurrency). Results are
  /// byte-identical at every setting; see base/thread_pool.h.
  size_t threads = 0;

  // ---- Statement governance (base/query_context.h) ----
  // Zero resolves the corresponding environment variable; an unset
  // variable means unlimited. A malformed variable fails every statement
  // with kInvalidArgument (sticky, like MAYBMS_POOL_PAGES). Exceeding a
  // limit aborts the statement with kDeadlineExceeded (deadline) or
  // kResourceExhausted (budgets) and rolls its effects back entirely.

  /// Wall-clock deadline per statement, ms (MAYBMS_STATEMENT_TIMEOUT_MS).
  uint64_t statement_timeout_ms = 0;

  /// Budget of worlds a statement may derive or decode
  /// (MAYBMS_MAX_WORLDS). Independently, both engines stop every
  /// statement at the fixed world cap worlds::kMaxStatementWorlds.
  uint64_t max_worlds = 0;

  /// Cap on estimated result bytes a statement may accumulate, MiB
  /// (MAYBMS_MEM_BUDGET_MB).
  uint64_t mem_budget_mb = 0;
};

/// A consistent immutable view of a session's state — the world-set,
/// the constraint catalog, and the view definitions — as of one commit
/// point. Snapshots are what make concurrent reads snapshot-isolated:
/// the world-set handle is a copy-on-write clone whose instances are
/// shared with the live session (immutable once shared,
/// storage/catalog.h), so building one is handle bumps and a pinned
/// snapshot never observes later writes. A statement
/// evaluated against a snapshot sees either the state before a
/// concurrent commit or the state after it — never a mixture — and its
/// result is byte-identical to serial execution against that state.
struct SessionSnapshot {
  /// Monotone commit sequence number (0 = initial state); successive
  /// published snapshots of one session carry increasing versions.
  uint64_t version = 0;
  std::shared_ptr<const worlds::WorldSet> worlds;
  Catalog catalog;
  std::map<std::string, std::shared_ptr<const sql::SelectStatement>> views;
};

/// An I-SQL session: parses statements, resolves views, and evaluates
/// against the configured world-set engine. This is the main public entry
/// point of the library.
///
///   maybms::isql::Session session;
///   auto r = session.Execute("create table R (A text, B integer);");
///   ...
///   auto q = session.Execute("select possible sum(B) from I;");
///
/// Statement semantics follow the paper:
///  * SELECT queries (including those with repair/choice/assert) do not
///    modify the session's world-set;
///  * CREATE TABLE ... AS materializes the statement's world operations;
///  * INSERT/UPDATE/DELETE run in every world; a constraint violation in
///    any world discards the update in all worlds;
///  * no statement enumerates more than worlds::kMaxStatementWorlds
///    worlds on either engine (kUnsupported before any world runs);
///  * views are named queries; views may contain world operations (e.g.
///    `assert`), in which case querying the view evaluates against the
///    derived world-set the view denotes.
class Session {
 public:
  explicit Session(SessionOptions options = SessionOptions());
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes a single statement.
  Result<QueryResult> Execute(const std::string& sql);

  /// Parses and executes a ';'-separated script; returns the result of
  /// every statement.
  Result<std::vector<QueryResult>> ExecuteScript(const std::string& sql);

  /// Executes an already parsed statement. Runs under the session's
  /// resolved governance limits; if the caller (e.g. the server) has
  /// already installed a QueryContext on this thread, that context
  /// governs instead — the caller owns deadline arithmetic then.
  Result<QueryResult> ExecuteStatement(const sql::Statement& stmt);

  /// The session's resolved governance limits (options + environment).
  /// The server uses these as the floor when combining with per-request
  /// deadlines.
  const base::GovernanceLimits& governance_limits() const {
    return governance_limits_;
  }

  /// The live world-set. The reference stays valid for the session's
  /// lifetime; its contents change with every mutating statement.
  const worlds::WorldSet& world_set() const { return *state_.worlds; }
  const Catalog& catalog() const { return state_.catalog; }
  const SessionOptions& options() const { return options_; }

  /// Names of defined views (lower-cased).
  std::vector<std::string> ViewNames() const;

  // ---- Snapshot-isolated concurrent reads (src/server/) ----

  /// Pins the current state as an immutable snapshot.
  ///
  /// With options().publish_snapshots set, this returns the snapshot
  /// published by the latest commit and is safe to call from any thread
  /// concurrently with one writer thread executing statements (the
  /// server's reader path). Without it, a snapshot of the current state
  /// is built on the fly; that path is NOT safe against a concurrent
  /// writer — same single-thread rule as every other const accessor.
  std::shared_ptr<const SessionSnapshot> PinSnapshot() const;

  /// Evaluates a SELECT (including repair/choice/assert/group pipelines
  /// and view references) against a pinned snapshot. Never modifies any
  /// session; mutating statements are rejected with kInvalidArgument.
  /// Safe to run from many threads over the same snapshot concurrently:
  /// evaluation is const over the snapshot's world-set, and view
  /// materialization works on a reader-private clone.
  static Result<QueryResult> EvaluateSnapshot(const SessionSnapshot& snapshot,
                                              const sql::Statement& stmt,
                                              size_t max_display_worlds);

  /// Parse-then-evaluate convenience for the wire path and tests.
  static Result<QueryResult> EvaluateSnapshot(const SessionSnapshot& snapshot,
                                              const std::string& sql,
                                              size_t max_display_worlds);

  /// The paged store backing this session, or nullptr in memory mode.
  /// Introspection for tests and benchmarks (pool stats, generations).
  storage::PagedStore* paged_store() { return store_.get(); }

  /// True when this session runs on durable paged storage.
  bool is_paged() const { return paged_; }

 private:
  using ViewMap =
      std::map<std::string, std::shared_ptr<const sql::SelectStatement>>;

  /// Everything a statement may change.
  struct State {
    std::unique_ptr<worlds::WorldSet> worlds;
    Catalog catalog;
    // View name (lower-cased) -> definition.
    ViewMap views;
  };

  /// The statement body under whatever governance context is installed.
  /// A SELECT evaluates against the current state. A mutating statement
  /// builds the next state on a clone (handle bumps), commits it when
  /// paged, and swaps it in only after that succeeded — so a statement
  /// that returns an error, governed or not, has no effect in memory or
  /// on disk.
  Result<QueryResult> RunStatement(const sql::Statement& stmt);

  /// Resolves governance limits from options + environment (strict
  /// parsing; failures are sticky in governance_status_).
  void ResolveGovernance();

  /// Applies a mutating statement to `next`.
  static Result<QueryResult> ApplyMutation(const sql::Statement& stmt,
                                           State* next);
  static Result<QueryResult> ExecuteCreateTable(
      const sql::CreateTableStatement& stmt, State* next);
  static Result<QueryResult> ExecuteCreateTableAs(
      const sql::CreateTableAsStatement& stmt, State* next);
  static Result<QueryResult> ExecuteDrop(const sql::DropTableStatement& stmt,
                                         State* next);
  static Result<QueryResult> ExecuteDml(const sql::Statement& stmt,
                                        State* next);

  /// True if `stmt` (transitively) references any view in `views`.
  static bool ReferencesViews(const sql::SelectStatement& stmt,
                              const ViewMap& views);

  /// Materializes every view referenced by `stmt` into `target`
  /// (recursively, dependency-first). `in_progress` detects cycles.
  static Status MaterializeViewsInto(const ViewMap& views,
                                     worlds::WorldSet* target,
                                     const sql::SelectStatement& stmt,
                                     std::set<std::string>* in_progress);

  /// The shared SELECT pipeline: evaluates `stmt` against `ws`, expanding
  /// views from `views` on a clone when referenced. Both the session's
  /// EvaluateSelect and the static snapshot path go through here.
  static Result<QueryResult> EvaluateSelectOn(const worlds::WorldSet& ws,
                                              const ViewMap& views,
                                              const sql::SelectStatement& stmt,
                                              size_t max_display_worlds);

  /// A snapshot of the live state at `version`: a world-set clone, the
  /// catalog and the views.
  std::shared_ptr<const SessionSnapshot> BuildSnapshot(uint64_t version) const;

  /// Rebuilds and publishes the snapshot readers pin (publish_snapshots
  /// mode). Called after construction and after every successful mutating
  /// statement, from the (single) writer thread.
  void PublishSnapshot();

  std::unique_ptr<worlds::WorldSet> MakeWorldSet() const;

  /// Paged mode: opens/creates the store and restores a committed
  /// world-set if one exists. Called from the constructor; failures land
  /// in storage_status_ (the constructor itself never fails).
  void InitStorage();

  /// Paged mode: durably commits `next` as the store's next generation.
  /// On failure the store still presents the current state.
  Status Commit(const State& next);

  SessionOptions options_;
  State state_;

  // Published snapshot (publish_snapshots mode). The mutex guards only
  // the pointer swap/copy: readers run evaluation outside it.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const SessionSnapshot> published_;
  // Superseded snapshots a reader may still pin. No reader can pin one
  // again, so the writer frees each on a later publish once it holds the
  // last reference: readers never pay for destroying a stale state.
  std::vector<std::shared_ptr<const SessionSnapshot>> retired_;
  uint64_t commit_version_ = 0;

  // Durable paged storage (null in memory mode). Views are NOT durable:
  // view definitions are ASTs and there is no unparser yet.
  std::unique_ptr<storage::PagedStore> store_;
  bool paged_ = false;         // resolved storage mode is kPaged
  Status storage_status_;      // sticky init failure, returned per statement
  base::GovernanceLimits governance_limits_;
  Status governance_status_;   // sticky malformed-governance-env failure
  std::string storage_dir_;
  bool owns_storage_dir_ = false;
};

}  // namespace maybms::isql

#endif  // MAYBMS_ISQL_SESSION_H_
