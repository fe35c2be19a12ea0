#include "isql/session.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <optional>
#include <system_error>
#include <utility>

#include <unistd.h>

#include "base/string_util.h"
#include "engine/dml.h"
#include "sql/parser.h"
#include "storage/codec.h"
#include "worlds/decomposed_world_set.h"
#include "worlds/explicit_world_set.h"

namespace maybms::isql {

namespace {

/// Constraint declarations ride along in the snapshot's opaque metadata:
/// one entry per table, key "constraints:<table_lower>", value a
/// codec-encoded list {u32 count; per constraint u8 kind, u32 num
/// columns, column strings}.
constexpr char kConstraintKeyPrefix[] = "constraints:";

std::vector<std::pair<std::string, std::string>> EncodeCatalogMetadata(
    const Catalog& catalog) {
  std::vector<std::pair<std::string, std::string>> metadata;
  for (const auto& [table, constraints] : catalog.AllConstraints()) {
    std::vector<std::byte> bytes;
    storage::codec::PutU32(&bytes, static_cast<uint32_t>(constraints.size()));
    for (const Constraint& c : constraints) {
      storage::codec::PutU8(&bytes, static_cast<uint8_t>(c.kind));
      storage::codec::PutU32(&bytes, static_cast<uint32_t>(c.columns.size()));
      for (const std::string& column : c.columns) {
        storage::codec::PutString(&bytes, column);
      }
    }
    metadata.emplace_back(
        kConstraintKeyPrefix + table,
        std::string(reinterpret_cast<const char*>(bytes.data()),
                    bytes.size()));
  }
  return metadata;
}

Status RestoreCatalogMetadata(
    const std::vector<std::pair<std::string, std::string>>& metadata,
    Catalog* catalog) {
  catalog->Clear();
  const std::string prefix = kConstraintKeyPrefix;
  for (const auto& [key, value] : metadata) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string table = key.substr(prefix.size());
    storage::codec::Reader r(
        reinterpret_cast<const std::byte*>(value.data()), value.size());
    MAYBMS_ASSIGN_OR_RETURN(uint32_t count, r.U32());
    for (uint32_t i = 0; i < count; ++i) {
      Constraint c;
      MAYBMS_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
      c.kind = static_cast<ConstraintKind>(kind);
      MAYBMS_ASSIGN_OR_RETURN(uint32_t num_columns, r.U32());
      c.columns.reserve(num_columns);
      for (uint32_t j = 0; j < num_columns; ++j) {
        MAYBMS_ASSIGN_OR_RETURN(std::string column, r.String());
        c.columns.push_back(std::move(column));
      }
      catalog->AddConstraint(table, std::move(c));
    }
  }
  return Status::OK();
}

/// Strict environment-variable number parsing (base/string_util.h): the
/// whole string must be digits and the value positive. Anything else —
/// "abc", "64k", "-1", "0", overflow — is an error, never a silent
/// fallback.
Result<size_t> ParsePositiveEnv(const char* name, const char* text) {
  const std::optional<uint64_t> parsed =
      ParseDecimal(text, std::numeric_limits<size_t>::max());
  if (!parsed.has_value() || *parsed == 0) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a positive integer, got \"" +
                                   text + "\"");
  }
  return static_cast<size_t>(*parsed);
}

bool IsMutatingStatement(sql::StatementKind kind) {
  switch (kind) {
    case sql::StatementKind::kSelect:
      return false;  // plain queries never modify the world-set
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kCreateTableAs:
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kInsert:
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete:
      return true;
  }
  return true;
}

}  // namespace

Session::Session(SessionOptions options) : options_(options) {
  state_.worlds = MakeWorldSet();
  InitStorage();
  ResolveGovernance();
  if (options_.publish_snapshots) PublishSnapshot();
}

Session::~Session() {
  store_.reset();  // close the file before removing the directory
  if (owns_storage_dir_ && !storage_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(storage_dir_, ec);  // best effort
  }
}

void Session::InitStorage() {
  StorageMode mode = options_.storage;
  if (mode == StorageMode::kDefault) {
    const char* env = std::getenv("MAYBMS_STORAGE");
    const std::string value = env != nullptr ? env : "";
    if (value.empty() || value == "memory") {
      mode = StorageMode::kMemory;
    } else if (value == "paged") {
      mode = StorageMode::kPaged;
    } else {
      // A typo ("Paged", "disk") must not silently drop durability: fail
      // every statement instead of falling back to memory mode.
      storage_status_ = Status::InvalidArgument(
          "MAYBMS_STORAGE: unknown storage mode \"" + value +
          "\" (expected \"memory\" or \"paged\")");
      return;
    }
  }
  if (mode != StorageMode::kPaged) return;
  paged_ = true;

  storage_status_ = [&]() -> Status {
    std::string dir = options_.storage_dir;
    if (dir.empty()) {
      const char* env = std::getenv("MAYBMS_STORAGE_DIR");
      if (env != nullptr) dir = env;
    }
    std::error_code ec;
    if (dir.empty()) {
      // Private per-session directory, removed in ~Session. pid+counter
      // keeps concurrent test binaries and sessions apart.
      static std::atomic<uint64_t> counter{0};
      const std::filesystem::path base =
          std::filesystem::temp_directory_path(ec);
      if (ec) {
        return Status::IOError("temp_directory_path: " + ec.message());
      }
      dir = (base / ("maybms-" + std::to_string(::getpid()) + "-" +
                     std::to_string(counter.fetch_add(1))))
                .string();
      owns_storage_dir_ = true;
    }
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("create_directories(" + dir +
                             "): " + ec.message());
    }
    storage_dir_ = dir;

    size_t pool_pages = options_.pool_pages;
    if (pool_pages == 0) {
      const char* env = std::getenv("MAYBMS_POOL_PAGES");
      if (env != nullptr) {
        MAYBMS_ASSIGN_OR_RETURN(pool_pages,
                                ParsePositiveEnv("MAYBMS_POOL_PAGES", env));
      }
    }
    if (pool_pages == 0) pool_pages = 1024;

    MAYBMS_ASSIGN_OR_RETURN(
        store_, storage::PagedStore::Open(dir + "/maybms.db", pool_pages));
    if (store_->has_data()) {
      MAYBMS_ASSIGN_OR_RETURN(storage::DurableSnapshot snapshot,
                              store_->Load());
      MAYBMS_RETURN_NOT_OK(state_.worlds->FromSnapshot(snapshot));
      // The rebuilt components are new instances; bind them to the runs
      // they were loaded from, so the next commit does not rewrite them.
      MAYBMS_ASSIGN_OR_RETURN(storage::DurableSnapshot restored,
                              state_.worlds->ToSnapshot());
      store_->AdoptLoadedComponents(restored);
      MAYBMS_RETURN_NOT_OK(
          RestoreCatalogMetadata(snapshot.metadata, &state_.catalog));
    }
    return Status::OK();
  }();
}

Status Session::Commit(const State& next) {
  // Unchanged tables and components are the instances the last commit
  // wrote, so the store writes only what this statement changed.
  MAYBMS_ASSIGN_OR_RETURN(storage::DurableSnapshot snapshot,
                          next.worlds->ToSnapshot());
  snapshot.metadata = EncodeCatalogMetadata(next.catalog);
  return store_->Commit(snapshot);
}

void Session::ResolveGovernance() {
  governance_status_ = [&]() -> Status {
    // Option value wins; zero falls back to the environment; strict
    // parsing — "500ms" or "-1" must fail loudly, never silently run
    // ungoverned (the PR 9 MAYBMS_POOL_PAGES rule).
    auto resolve = [](uint64_t option_value, const char* env_name,
                      uint64_t* out) -> Status {
      if (option_value != 0) {
        *out = option_value;
        return Status::OK();
      }
      const char* env = std::getenv(env_name);
      if (env != nullptr) {
        MAYBMS_ASSIGN_OR_RETURN(size_t parsed,
                                ParsePositiveEnv(env_name, env));
        *out = static_cast<uint64_t>(parsed);
      }
      return Status::OK();
    };
    MAYBMS_RETURN_NOT_OK(resolve(options_.statement_timeout_ms,
                                 "MAYBMS_STATEMENT_TIMEOUT_MS",
                                 &governance_limits_.deadline_ms));
    MAYBMS_RETURN_NOT_OK(resolve(options_.max_worlds, "MAYBMS_MAX_WORLDS",
                                 &governance_limits_.max_worlds));
    uint64_t mem_budget_mb = 0;
    MAYBMS_RETURN_NOT_OK(resolve(options_.mem_budget_mb,
                                 "MAYBMS_MEM_BUDGET_MB", &mem_budget_mb));
    governance_limits_.mem_budget_bytes = mem_budget_mb * 1024 * 1024;
    return Status::OK();
  }();
}

std::unique_ptr<worlds::WorldSet> Session::MakeWorldSet() const {
  // Both engines stop a statement at the fixed world cap
  // (worlds::kMaxStatementWorlds); the governance world budget is the
  // operator's own, lower limit.
  if (options_.engine == EngineMode::kExplicit) {
    return std::make_unique<worlds::ExplicitWorldSet>(
        worlds::kMaxStatementWorlds, options_.threads);
  }
  return std::make_unique<worlds::DecomposedWorldSet>(
      worlds::kMaxStatementWorlds, options_.threads);
}

Result<QueryResult> Session::Execute(const std::string& sql) {
  MAYBMS_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                          sql::Parser::ParseStatement(sql));
  return ExecuteStatement(*stmt);
}

Result<std::vector<QueryResult>> Session::ExecuteScript(
    const std::string& sql) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<sql::StatementPtr> statements,
                          sql::Parser::ParseScript(sql));
  std::vector<QueryResult> results;
  results.reserve(statements.size());
  for (const sql::StatementPtr& stmt : statements) {
    MAYBMS_ASSIGN_OR_RETURN(QueryResult r, ExecuteStatement(*stmt));
    results.push_back(std::move(r));
  }
  return results;
}

Result<QueryResult> Session::ExecuteStatement(const sql::Statement& stmt) {
  // A failed storage init (unknown MAYBMS_STORAGE mode, invalid
  // MAYBMS_POOL_PAGES, unopenable directory, corrupt store, engine
  // mismatch) fails every statement with the same sticky error, as does
  // a malformed governance variable.
  MAYBMS_RETURN_NOT_OK(storage_status_);
  MAYBMS_RETURN_NOT_OK(governance_status_);
  if (base::CurrentQueryContext() != nullptr) {
    // A caller (the server's per-request path) already installed a
    // context on this thread; it owns the deadline arithmetic.
    return RunStatement(stmt);
  }
  base::QueryContext ctx(governance_limits_);
  if (!ctx.governed()) {
    // No limits, no injected kill points: skip the context entirely so
    // every GovernPoll() stays one TLS load and a branch.
    return RunStatement(stmt);
  }
  base::QueryContextScope scope(&ctx);
  return RunStatement(stmt);
}

Result<QueryResult> Session::RunStatement(const sql::Statement& stmt) {
  if (!IsMutatingStatement(stmt.kind)) {
    return EvaluateSelectOn(*state_.worlds, state_.views,
                            static_cast<const sql::SelectStatement&>(stmt),
                            options_.max_display_worlds);
  }
  // Compute, commit, swap. Any error before the swap — the statement's
  // own, a governance verdict, or a failed commit — drops `next`, and
  // the store still presents the current state (PagedStore::Commit is
  // all-or-nothing and never polls after its root flip).
  State next{state_.worlds->Clone(), state_.catalog, state_.views};
  MAYBMS_ASSIGN_OR_RETURN(QueryResult result, ApplyMutation(stmt, &next));
  if (paged_) MAYBMS_RETURN_NOT_OK(Commit(next));
  // In place, so references from world_set() stay valid.
  state_.worlds->MoveFrom(std::move(*next.worlds));
  state_.catalog = std::move(next.catalog);
  state_.views = std::move(next.views);
  if (options_.publish_snapshots) PublishSnapshot();
  return result;
}

Result<QueryResult> Session::ApplyMutation(const sql::Statement& stmt,
                                           State* next) {
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable:
      return ExecuteCreateTable(
          static_cast<const sql::CreateTableStatement&>(stmt), next);
    case sql::StatementKind::kCreateTableAs:
      return ExecuteCreateTableAs(
          static_cast<const sql::CreateTableAsStatement&>(stmt), next);
    case sql::StatementKind::kDropTable:
      return ExecuteDrop(static_cast<const sql::DropTableStatement&>(stmt),
                         next);
    case sql::StatementKind::kInsert:
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete:
      return ExecuteDml(stmt, next);
    case sql::StatementKind::kSelect:
      break;
  }
  return Status::InvalidArgument("unknown statement kind");
}

std::vector<std::string> Session::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(state_.views.size());
  for (const auto& [name, def] : state_.views) names.push_back(name);
  return names;
}

bool Session::ReferencesViews(const sql::SelectStatement& stmt,
                              const ViewMap& views) {
  std::set<std::string> referenced;
  worlds::CollectReferencedRelations(stmt, &referenced);
  for (const std::string& name : referenced) {
    if (views.count(name) > 0) return true;
  }
  return false;
}

Status Session::MaterializeViewsInto(const ViewMap& views,
                                     worlds::WorldSet* target,
                                     const sql::SelectStatement& stmt,
                                     std::set<std::string>* in_progress) {
  std::set<std::string> referenced;
  worlds::CollectReferencedRelations(stmt, &referenced);
  for (const std::string& name : referenced) {
    auto it = views.find(name);
    if (it == views.end()) continue;
    if (target->HasRelation(name)) continue;  // already materialized
    if (!in_progress->insert(name).second) {
      return Status::InvalidArgument("cyclic view definition: " + name);
    }
    // Dependencies first.
    MAYBMS_RETURN_NOT_OK(
        MaterializeViewsInto(views, target, *it->second, in_progress));
    MAYBMS_RETURN_NOT_OK(target->MaterializeSelect(name, *it->second));
    in_progress->erase(name);
  }
  return Status::OK();
}

Result<QueryResult> Session::EvaluateSelectOn(const worlds::WorldSet& ws,
                                              const ViewMap& views,
                                              const sql::SelectStatement& stmt,
                                              size_t max_display_worlds) {
  const worlds::WorldSet* target = &ws;
  std::unique_ptr<worlds::WorldSet> derived;
  if (ReferencesViews(stmt, views)) {
    // View world operations evaluate on a private clone — plain queries
    // never modify the session's (or snapshot's) world-set.
    derived = ws.Clone();
    std::set<std::string> in_progress;
    MAYBMS_RETURN_NOT_OK(
        MaterializeViewsInto(views, derived.get(), stmt, &in_progress));
    target = derived.get();
  }

  MAYBMS_ASSIGN_OR_RETURN(worlds::SelectEvaluation eval,
                          target->EvaluateSelect(stmt, max_display_worlds));

  if (!eval.groups.empty()) {
    return QueryResult::Groups(std::move(eval.groups));
  }
  if (eval.combined.has_value()) {
    return QueryResult::SingleTable(std::move(*eval.combined));
  }
  return QueryResult::Worlds(std::move(eval.per_world), eval.truncated);
}

std::shared_ptr<const SessionSnapshot> Session::BuildSnapshot(
    uint64_t version) const {
  auto snapshot = std::make_shared<SessionSnapshot>();
  snapshot->version = version;
  // The clone shares every instance with the live world-set (immutable
  // once shared), so this is handle bumps; the next mutating statement
  // clones-on-write and leaves the snapshot's instances untouched.
  snapshot->worlds =
      std::shared_ptr<const worlds::WorldSet>(state_.worlds->Clone().release());
  snapshot->catalog = state_.catalog;
  snapshot->views = state_.views;
  return snapshot;
}

void Session::PublishSnapshot() {
  std::shared_ptr<const SessionSnapshot> previous =
      BuildSnapshot(commit_version_++);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    std::swap(published_, previous);
  }
  if (previous != nullptr) retired_.push_back(std::move(previous));
  std::erase_if(retired_, [](const auto& s) { return s.use_count() == 1; });
}

std::shared_ptr<const SessionSnapshot> Session::PinSnapshot() const {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (published_ != nullptr) return published_;
  }
  // No published snapshot (publish_snapshots off): build one on the fly.
  // Single-threaded use only, like every other const accessor.
  return BuildSnapshot(commit_version_);
}

Result<QueryResult> Session::EvaluateSnapshot(const SessionSnapshot& snapshot,
                                              const sql::Statement& stmt,
                                              size_t max_display_worlds) {
  if (stmt.kind != sql::StatementKind::kSelect) {
    return Status::InvalidArgument(
        "snapshot evaluation is read-only: only SELECT statements may run "
        "against a pinned snapshot");
  }
  return EvaluateSelectOn(*snapshot.worlds, snapshot.views,
                          static_cast<const sql::SelectStatement&>(stmt),
                          max_display_worlds);
}

Result<QueryResult> Session::EvaluateSnapshot(const SessionSnapshot& snapshot,
                                              const std::string& sql,
                                              size_t max_display_worlds) {
  MAYBMS_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                          sql::Parser::ParseStatement(sql));
  return EvaluateSnapshot(snapshot, *stmt, max_display_worlds);
}

Result<QueryResult> Session::ExecuteCreateTable(
    const sql::CreateTableStatement& stmt, State* next) {
  if (next->views.count(AsciiToLower(stmt.table_name)) > 0) {
    return Status::AlreadyExists("a view named " + stmt.table_name +
                                 " already exists");
  }
  MAYBMS_ASSIGN_OR_RETURN(Table prototype,
                          engine::BuildTableFromDefinition(stmt));
  MAYBMS_RETURN_NOT_OK(
      next->worlds->CreateBaseTable(stmt.table_name, prototype));
  for (Constraint& c : engine::CollectConstraints(stmt)) {
    next->catalog.AddConstraint(stmt.table_name, std::move(c));
  }
  return QueryResult::Message("created table " + stmt.table_name);
}

Result<QueryResult> Session::ExecuteCreateTableAs(
    const sql::CreateTableAsStatement& stmt, State* next) {
  const std::string lower = AsciiToLower(stmt.table_name);
  if (next->views.count(lower) > 0 ||
      next->worlds->HasRelation(stmt.table_name)) {
    return Status::AlreadyExists("relation or view already exists: " +
                                 stmt.table_name);
  }

  if (stmt.is_view) {
    next->views[lower] =
        std::shared_ptr<const sql::SelectStatement>(stmt.query->Clone());
    return QueryResult::Message("created view " + stmt.table_name);
  }

  // Referenced views materialize first; view world operations (e.g. an
  // `assert` inside the view) become part of the session's world-set —
  // CREATE TABLE makes the derived world-set real.
  std::set<std::string> in_progress;
  MAYBMS_RETURN_NOT_OK(MaterializeViewsInto(next->views, next->worlds.get(),
                                            *stmt.query, &in_progress));
  MAYBMS_RETURN_NOT_OK(
      next->worlds->MaterializeSelect(stmt.table_name, *stmt.query));
  return QueryResult::Message("created table " + stmt.table_name);
}

Result<QueryResult> Session::ExecuteDrop(const sql::DropTableStatement& stmt,
                                         State* next) {
  const std::string lower = AsciiToLower(stmt.table_name);
  if (next->views.erase(lower) > 0) {
    return QueryResult::Message("dropped view " + stmt.table_name);
  }
  Status status = next->worlds->DropRelation(stmt.table_name);
  if (!status.ok()) {
    if (stmt.if_exists && status.code() == StatusCode::kNotFound) {
      return QueryResult::Message("nothing to drop");
    }
    return status;
  }
  next->catalog.DropConstraints(stmt.table_name);
  return QueryResult::Message("dropped table " + stmt.table_name);
}

Result<QueryResult> Session::ExecuteDml(const sql::Statement& stmt,
                                        State* next) {
  MAYBMS_RETURN_NOT_OK(next->worlds->ApplyDml(stmt, next->catalog));
  switch (stmt.kind) {
    case sql::StatementKind::kInsert:
      return QueryResult::Message("insert applied in all worlds");
    case sql::StatementKind::kUpdate:
      return QueryResult::Message("update applied in all worlds");
    default:
      return QueryResult::Message("delete applied in all worlds");
  }
}

}  // namespace maybms::isql
