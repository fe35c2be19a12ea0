// Copy-on-write shared-table world storage (src/storage/catalog.h) and
// the snapshot/rollback commit protocol of the explicit engine's writers
// (src/worlds/explicit_world_set.cc).
//
// Two kinds of guarantees are locked in here:
//  * Structural sharing: copying a Database — and deriving worlds by
//    repair/choice, or running DML across thousands of worlds — must not
//    allocate copies of unchanged relations. Enforced with an exact
//    operator-new byte counter (same technique as
//    tests/combiner_property_test.cc).
//  * Atomicity: a mid-pipeline error (choice over an empty relation, a
//    constraint violation in one world) must leave the world-set
//    byte-for-byte untouched — the PR 1 guarantee, now provided by the
//    snapshot commit log instead of a full worlds_ copy.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "isql/session.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "tests/test_util.h"
#include "worlds/explicit_world_set.h"

// ---------------------------------------------------------------------------
// Allocation tracking (whole test binary): every operator new carries a
// small size header so live and peak byte counts are exact.
// ---------------------------------------------------------------------------

namespace {

std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_peak_bytes{0};

constexpr size_t kHeader = alignof(std::max_align_t);

void TrackAlloc(size_t n) {
  size_t live = g_live_bytes.fetch_add(n) + n;
  size_t peak = g_peak_bytes.load();
  while (peak < live && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
}

void* TrackedNew(size_t n) {
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(base) = n;
  TrackAlloc(n);
  return static_cast<char*>(base) + kHeader;
}

void TrackedDelete(void* p) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*reinterpret_cast<size_t*>(base));
  std::free(base);
}

/// Peak allocation (bytes above the entry live count) while running `fn`.
template <typename Fn>
size_t PeakDuring(Fn&& fn) {
  const size_t live_before = g_live_bytes.load();
  g_peak_bytes.store(live_before);
  fn();
  return g_peak_bytes.load() - live_before;
}

}  // namespace

void* operator new(size_t n) { return TrackedNew(n); }
void* operator new[](size_t n) { return TrackedNew(n); }
void operator delete(void* p) noexcept { TrackedDelete(p); }
void operator delete[](void* p) noexcept { TrackedDelete(p); }
void operator delete(void* p, size_t) noexcept { TrackedDelete(p); }
void operator delete[](void* p, size_t) noexcept { TrackedDelete(p); }

namespace maybms {
namespace {

using maybms::testing::I;
using maybms::testing::T;

// ---------------------------------------------------------------------------
// Database copy-on-write unit behavior
// ---------------------------------------------------------------------------

Table WideTable(size_t rows) {
  Schema schema;
  schema.AddColumn(Column("a", DataType::kInteger));
  schema.AddColumn(Column("b", DataType::kInteger));
  Table t(std::move(schema));
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked(
        Tuple({I(static_cast<int64_t>(i)), I(static_cast<int64_t>(i * 7))}));
  }
  return t;
}

TEST(CowDatabaseTest, CopyIsHandleBumpsNotRowCopies) {
  Database db;
  db.PutRelation("Big", WideTable(10000));

  size_t peak = 0;
  Database copy;
  peak = PeakDuring([&] { copy = db; });
  // A 10k-row table occupies hundreds of KB; the copy must only allocate
  // map nodes and a name string.
  EXPECT_LT(peak, 4u << 10) << "Database copy allocated " << peak
                            << " bytes — rows were copied, not shared";
  auto a = db.GetRelation("Big");
  auto b = copy.GetRelation("Big");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b) << "copies must share the same Table instance";
}

TEST(CowDatabaseTest, MutableRelationClonesOnlyWhenShared) {
  Database db;
  db.PutRelation("R", WideTable(100));

  // Sole owner: no clone, same instance mutated in place.
  auto before = db.GetRelation("R");
  ASSERT_TRUE(before.ok());
  auto unique_access = db.MutableRelation("R");
  ASSERT_TRUE(unique_access.ok());
  EXPECT_EQ(static_cast<const Table*>(*unique_access), *before);

  // Shared with a copy: the writer clones; the copy keeps the old rows.
  Database copy = db;
  auto shared_access = db.MutableRelation("R");
  ASSERT_TRUE(shared_access.ok());
  (*shared_access)->Clear();
  auto mine = db.GetRelation("R");
  auto theirs = copy.GetRelation("R");
  ASSERT_TRUE(mine.ok() && theirs.ok());
  EXPECT_EQ((*mine)->num_rows(), 0u);
  EXPECT_EQ((*theirs)->num_rows(), 100u)
      << "mutating one world leaked into its sibling";
}

TEST(CowDatabaseTest, HandlesShareOneInstanceAcrossDatabases) {
  Database a;
  a.PutRelation("T", WideTable(1000));
  auto handle = a.GetRelationHandle("T");
  ASSERT_TRUE(handle.ok());
  Database b;
  size_t peak = PeakDuring([&] { b.PutRelation("T", *handle); });
  EXPECT_LT(peak, 2u << 10);
  EXPECT_EQ(*a.GetRelation("T"), *b.GetRelation("T"));
  // The handle keeps a's instance alive and shared: a write in b clones,
  // leaving a (and the handle) untouched.
  auto writable = b.MutableRelation("T");
  ASSERT_TRUE(writable.ok());
  (*writable)->Clear();
  EXPECT_EQ((*handle)->num_rows(), 1000u);
  EXPECT_EQ((*a.GetRelation("T"))->num_rows(), 1000u);
}

TEST(CowDatabaseTest, ContentEqualsShortCircuitsSharedInstances) {
  Database a;
  a.PutRelation("R", WideTable(5000));
  Database b = a;
  size_t peak = PeakDuring([&] { EXPECT_TRUE(a.ContentEquals(b)); });
  // SetEquals sorts copies of both sides; the shared-instance fast path
  // must not.
  EXPECT_LT(peak, 1u << 10);
}

// ---------------------------------------------------------------------------
// Peak allocation across the explicit engine's derivation/DML hot paths
// ---------------------------------------------------------------------------

/// 2^12 = 4096 worlds via a 12-key-group repair, plus one large relation
/// (`Big`, `rows` rows) and one tiny DML target (`T`) that are untouched
/// by the fan-out. Any per-world copy of `Big` would dwarf the bounds the
/// tests below assert.
void SetupManyWorldsWithBigRelation(isql::Session& session, int big_rows) {
  std::string script;
  script += "create table R (K integer, V integer);\n";
  script += "insert into R values ";
  for (int k = 0; k < 12; ++k) {
    if (k > 0) script += ", ";
    script += "(" + std::to_string(k) + ", 1), (" + std::to_string(k) + ", 2)";
  }
  script += ";\n";
  script += "create table Big (A integer, B integer);\n";
  for (int chunk = 0; chunk < big_rows / 500; ++chunk) {
    script += "insert into Big values ";
    for (int i = 0; i < 500; ++i) {
      int row = chunk * 500 + i;
      if (i > 0) script += ", ";
      script += "(" + std::to_string(row) + ", " + std::to_string(row % 97) +
                ")";
    }
    script += ";\n";
  }
  script += "create table T (K integer, V integer);\n";
  script += "insert into T values (0, 0), (1, 10), (2, 20);\n";
  // Repair 11 of the 12 key groups: 2^11 = 2048 worlds; the 12th group is
  // left for the derivation test to double the set to 4096.
  script +=
      "create table I as select K, V from R where K < 11 repair by key K;\n";
  ASSERT_TRUE(session.ExecuteScript(script).ok());
}

class ExplicitStorageSharingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    isql::SessionOptions options;
    options.engine = isql::EngineMode::kExplicit;
    session_ = std::make_unique<isql::Session>(options);
    SetupManyWorldsWithBigRelation(*session_, kBigRows);
    ASSERT_EQ(session_->world_set().NumWorlds(), 2048u);
  }

  static constexpr int kBigRows = 20000;
  std::unique_ptr<isql::Session> session_;
};

// Deriving worlds by repair must share every untouched relation between
// parent and children: doubling to 4096 worlds over a 20k-row `Big`
// relation would need >= 4096 x ~1.5MB if `Big` were copied per world.
// The bound below only leaves room for the per-world snapshot entries
// (relation handles) and each world's own tiny result relation.
TEST_F(ExplicitStorageSharingTest, RepairDerivationDoesNotCopyUntouched) {
  size_t peak = PeakDuring([&] {
    ASSERT_TRUE(session_
                    ->Execute(
                        "create table I2 as select K, V from R where K = 11 "
                        "repair by key K;")
                    .ok());
  });
  EXPECT_EQ(session_->world_set().NumWorlds(), 4096u);
  RecordProperty("peak_mib", static_cast<int>(peak >> 20));
  EXPECT_LT(peak, 48u << 20)
      << "repair fan-out peaked at " << (peak >> 20)
      << " MiB — untouched relations are being copied into derived worlds";
}

// `choice of` rides the same derivation path; a 2-way choice doubles the
// world count to 4096 and must still only allocate handles + tiny
// per-world results.
TEST_F(ExplicitStorageSharingTest, ChoiceDerivationDoesNotCopyUntouched) {
  ASSERT_TRUE(
      session_->Execute("create table Duo (K integer);").ok());
  ASSERT_TRUE(session_->Execute("insert into Duo values (1), (2);").ok());
  size_t peak = PeakDuring([&] {
    ASSERT_TRUE(
        session_->Execute("create table C as select K from Duo choice of K;")
            .ok());
  });
  EXPECT_EQ(session_->world_set().NumWorlds(), 4096u);
  RecordProperty("peak_mib", static_cast<int>(peak >> 20));
  EXPECT_LT(peak, 48u << 20)
      << "choice fan-out peaked at " << (peak >> 20) << " MiB";
}

// DML over 4096 worlds rewrites only the 3-row target relation per world;
// the snapshot commit log is handle bumps. Copying `Big` per world (the
// pre-COW behavior: ApplyDml started from a full worlds_ copy) would need
// gigabytes.
TEST_F(ExplicitStorageSharingTest, ApplyDmlDoesNotCopyUntouched) {
  ASSERT_TRUE(session_
                  ->Execute(
                      "create table I2 as select K, V from R where K = 11 "
                      "repair by key K;")
                  .ok());
  ASSERT_EQ(session_->world_set().NumWorlds(), 4096u);
  size_t peak = PeakDuring([&] {
    ASSERT_TRUE(session_->Execute("update T set V = V + 1;").ok());
  });
  RecordProperty("peak_mib", static_cast<int>(peak >> 20));
  EXPECT_LT(peak, 32u << 20)
      << "DML over 4096 worlds peaked at " << (peak >> 20)
      << " MiB — unchanged relations are being copied";
  // And the update actually took effect everywhere.
  auto result = session_->Execute("select certain V from T where K = 0;");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table().num_rows(), 1u);
  EXPECT_EQ(result->table().row(0).value(0).AsInteger(), 1);
}

// ---------------------------------------------------------------------------
// Snapshot/rollback atomicity (the PR 1 guarantee, re-proven on the
// commit-log implementation)
// ---------------------------------------------------------------------------

class ExplicitRollbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    isql::SessionOptions options;
    options.engine = isql::EngineMode::kExplicit;
    session_ = std::make_unique<isql::Session>(options);
    ASSERT_TRUE(session_
                    ->ExecuteScript(
                        "create table R (K integer, V integer);\n"
                        "insert into R values (0, 1), (0, 2), (1, 3), (1, 4);\n"
                        "create table I as select K, V from R repair by key "
                        "K;\n")
                    .ok());
    ASSERT_EQ(session_->world_set().NumWorlds(), 4u);
  }

  /// Canonical observable state: world count + a conf probe over I.
  std::string Snapshot() {
    auto conf = session_->Execute("select conf, K, V from I;");
    EXPECT_TRUE(conf.ok());
    return std::to_string(session_->world_set().NumWorlds()) + "\n" +
           (conf.ok() ? conf->table().ToString() : "<error>");
  }

  std::unique_ptr<isql::Session> session_;
};

TEST_F(ExplicitRollbackTest, MidPipelineErrorLeavesWorldSetUntouched) {
  ASSERT_TRUE(session_->Execute("create table E (K integer);").ok());
  const std::string before = Snapshot();

  // `choice of` over an empty relation fails after the pipeline has
  // already started deriving worlds — the original PR 1 atomicity bug.
  auto result =
      session_->Execute("create table X as select K from E choice of K;");
  ASSERT_FALSE(result.ok());

  EXPECT_FALSE(session_->world_set().HasRelation("X"));
  EXPECT_EQ(Snapshot(), before)
      << "failed materialization corrupted the world-set";
}

TEST_F(ExplicitRollbackTest, WorldCapErrorLeavesWorldSetUntouched) {
  // An engine built with a world cap of 8 (sessions use the fixed 2^20).
  worlds::ExplicitWorldSet ws(/*max_worlds=*/8, /*threads=*/1);
  Table r(Schema({Column("K", DataType::kInteger),
                  Column("V", DataType::kInteger)}));
  for (int64_t k = 0; k < 3; ++k) {
    r.AppendUnchecked(maybms::testing::Row({I(k), I(2 * k + 1)}));
    r.AppendUnchecked(maybms::testing::Row({I(k), I(2 * k + 2)}));
  }
  ASSERT_TRUE(ws.CreateBaseTable("R", r).ok());
  auto select = [](const std::string& text) {
    auto stmt = sql::Parser::ParseStatement(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    return std::move(*stmt);
  };
  const auto first =
      select("select K, V from R where K = 0 repair by key K");
  ASSERT_TRUE(ws.MaterializeSelect(
                    "I", static_cast<const sql::SelectStatement&>(*first))
                  .ok());
  ASSERT_EQ(ws.NumWorlds(), 2u);
  // 2^3 = 8 worlds would fit, but deriving them from each of the 2
  // existing worlds exceeds the cap of 8 cumulatively: the first source
  // world's 8 fit, the second's do not.
  const auto second = select("select K, V from R repair by key K");
  Status status = ws.MaterializeSelect(
      "J", static_cast<const sql::SelectStatement&>(*second));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
  EXPECT_NE(status.message().find("statement world cap of 8 worlds exceeded"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(ws.NumWorlds(), 2u);
  EXPECT_FALSE(ws.HasRelation("J"));
}

TEST_F(ExplicitRollbackTest, DmlConstraintViolationInOneWorldRollsBackAll) {
  // T's primary key can only be violated in worlds where I picked
  // (K=0, V=2): the update then turns keys {1, 2} into {2, 2}.
  ASSERT_TRUE(session_
                  ->ExecuteScript(
                      "create table T (K integer primary key, V integer);\n"
                      "insert into T values (1, 100), (2, 200);\n")
                  .ok());
  const std::string before = Snapshot();
  auto t_before = session_->Execute("select conf, K, V from T;");
  ASSERT_TRUE(t_before.ok());

  auto result = session_->Execute(
      "update T set K = 2 where K = 1 and "
      "exists(select * from I where K = 0 and V = 2);");
  ASSERT_FALSE(result.ok()) << "update must violate the primary key in the "
                               "worlds where I contains (0, 2)";

  // No world committed — not even those where the update was legal.
  auto t_after = session_->Execute("select conf, K, V from T;");
  ASSERT_TRUE(t_after.ok());
  EXPECT_TRUE(t_before->table().BagEquals(t_after->table()))
      << "DML partially committed across worlds";
  EXPECT_EQ(Snapshot(), before);
}

}  // namespace
}  // namespace maybms
