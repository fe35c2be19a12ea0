// Crash-recovery battery for the paged store (ISSUE 8):
//  * a fault-injected "process death" at EVERY write/fsync of a commit,
//    followed by reopen, must yield the exact pre-commit state (and the
//    store must remain committable afterwards);
//  * torn writes (a prefix of the killed write reaches disk) are covered
//    at alternating kill points — the page checksums must detect them;
//  * bit-flip and truncated-file fixtures prove corruption below a valid
//    root is DETECTED (kDataLoss), never silently read.

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "isql/formatter.h"
#include "isql/session.h"
#include "storage/codec.h"
#include "storage/file.h"
#include "storage/page.h"
#include "storage/snapshot.h"
#include "storage/store.h"
#include "tests/test_util.h"
#include "worlds/decomposed_world_set.h"

namespace maybms::storage {
namespace {

Schema TwoColumnSchema() {
  return Schema({Column("id", DataType::kInteger),
                 Column("name", DataType::kText)});
}

Database::TableHandle MakeTable(int64_t seed, int64_t rows) {
  Table table(TwoColumnSchema());
  for (int64_t i = 0; i < rows; ++i) {
    table.AppendUnchecked(Tuple({Value::Integer(seed * 1000 + i),
                                 Value::Text("row-" + std::to_string(seed) +
                                             "-" + std::to_string(i))}));
  }
  return std::make_shared<Table>(std::move(table));
}

/// A two-world explicit-style snapshot. `version` varies table contents;
/// both worlds share table 0 (the dedupe/sharing structure under test)
/// while table 1 belongs to world 1 only.
DurableSnapshot MakeSnapshot(int64_t version) {
  DurableSnapshot snapshot;
  snapshot.engine = "explicit";
  snapshot.tables.push_back(MakeTable(version, 5));
  snapshot.tables.push_back(MakeTable(version + 100, 3));
  snapshot.worlds.push_back({0.25, {{"R", 0}}});
  snapshot.worlds.push_back({0.75, {{"R", 0}, {"S", 1}}});
  snapshot.metadata.emplace_back("k" + std::to_string(version), "v");
  return snapshot;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

void ExpectSnapshotsEqual(const DurableSnapshot& got,
                          const DurableSnapshot& want) {
  EXPECT_EQ(got.engine, want.engine);
  ASSERT_EQ(got.tables.size(), want.tables.size());
  for (size_t i = 0; i < want.tables.size(); ++i) {
    EXPECT_TRUE(got.tables[i]->schema() == want.tables[i]->schema());
    ASSERT_EQ(got.tables[i]->num_rows(), want.tables[i]->num_rows());
    for (size_t r = 0; r < want.tables[i]->num_rows(); ++r) {
      EXPECT_EQ(got.tables[i]->row(r), want.tables[i]->row(r))
          << "table " << i << " row " << r;
    }
  }
  ASSERT_EQ(got.worlds.size(), want.worlds.size());
  for (size_t w = 0; w < want.worlds.size(); ++w) {
    // Byte-identical probabilities: compare bit patterns, not values.
    EXPECT_EQ(Bits(got.worlds[w].probability),
              Bits(want.worlds[w].probability));
    ASSERT_EQ(got.worlds[w].relations.size(), want.worlds[w].relations.size());
    for (size_t r = 0; r < want.worlds[w].relations.size(); ++r) {
      EXPECT_EQ(got.worlds[w].relations[r].name,
                want.worlds[w].relations[r].name);
      EXPECT_EQ(got.worlds[w].relations[r].table_index,
                want.worlds[w].relations[r].table_index);
    }
  }
  EXPECT_EQ(got.metadata, want.metadata);
}

class StorageRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Disarm();
    dir_ = std::filesystem::temp_directory_path() /
           ("maybms-recovery-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    FaultInjector::Disarm();
    std::filesystem::remove_all(dir_);
  }

  std::string StorePath(const std::string& name) {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(StorageRecoveryTest, CommitLoadRoundTrip) {
  auto store = PagedStore::Open(StorePath("a.db"), 64);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(store.value()->has_data());

  const DurableSnapshot snapshot = MakeSnapshot(1);
  ASSERT_TRUE(store.value()->Commit(snapshot).ok());
  EXPECT_TRUE(store.value()->has_data());
  EXPECT_EQ(store.value()->generation(), 1u);

  auto loaded = store.value()->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSnapshotsEqual(loaded.value(), snapshot);

  // Reopen from disk in a fresh store object.
  store.value().reset();
  auto reopened = PagedStore::Open(StorePath("a.db"), 64);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value()->has_data());
  EXPECT_EQ(reopened.value()->generation(), 1u);
  auto reloaded = reopened.value()->Load();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectSnapshotsEqual(reloaded.value(), snapshot);
}

TEST_F(StorageRecoveryTest, UnchangedTablesReusePageRuns) {
  auto store_or = PagedStore::Open(StorePath("b.db"), 64);
  ASSERT_TRUE(store_or.ok());
  PagedStore* store = store_or.value().get();

  DurableSnapshot v1 = MakeSnapshot(1);
  ASSERT_TRUE(store->Commit(v1).ok());
  std::vector<PageExtent> shared_extents;
  for (const auto& [table, run] : store->PersistedRuns()) {
    if (table == v1.tables[0].get()) shared_extents = run.extents;
  }
  ASSERT_FALSE(shared_extents.empty());
  ASSERT_GE(shared_extents.front().first_page, 2u);

  // v2 keeps table 0's instance and replaces table 1.
  DurableSnapshot v2 = v1;
  v2.tables[1] = MakeTable(999, 4);
  ASSERT_TRUE(store->Commit(v2).ok());
  EXPECT_EQ(store->generation(), 2u);

  bool found = false;
  for (const auto& [table, run] : store->PersistedRuns()) {
    if (table == v2.tables[0].get()) {
      // The unchanged instance was NOT rewritten: same page run.
      EXPECT_EQ(run.extents, shared_extents);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(StorageRecoveryTest, SharedInstancesStaySharedAcrossReload) {
  auto store_or = PagedStore::Open(StorePath("c.db"), 64);
  ASSERT_TRUE(store_or.ok());
  ASSERT_TRUE(store_or.value()->Commit(MakeSnapshot(7)).ok());

  auto loaded = store_or.value()->Load();
  ASSERT_TRUE(loaded.ok());
  // Both worlds referenced table index 0; the restored snapshot holds ONE
  // instance for it (pointer-shared through the handle), not copies.
  ASSERT_EQ(loaded.value().tables.size(), 2u);
  EXPECT_EQ(loaded.value().worlds[0].relations[0].table_index, 0u);
  EXPECT_EQ(loaded.value().worlds[1].relations[0].table_index, 0u);
}

// The central property: kill the commit at EVERY durability op (write or
// fsync), reopen, and require an ATOMIC outcome — byte-identical
// pre-commit state for every kill point up to and including the root-slot
// write, and the complete post-commit state for a kill on the final fsync
// (the root bytes are already in the file; a dead process cannot unwrite
// them — a failed commit means "not guaranteed durable", never "a third
// state"). Then prove the store is not wedged by committing cleanly. Odd
// kill points tear the killing write (a prefix reaches disk) to exercise
// checksum detection.
TEST_F(StorageRecoveryTest, EveryKillPointRecoversPreCommitState) {
  const DurableSnapshot before = MakeSnapshot(1);
  const DurableSnapshot after = MakeSnapshot(2);

  // Dry run to count the second commit's durability ops.
  uint64_t total_ops = 0;
  {
    auto store = PagedStore::Open(StorePath("dry.db"), 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(before).ok());
    FaultInjector::Arm(/*fail_after=*/1u << 30, /*tear_killing_write=*/false);
    ASSERT_TRUE(store.value()->Commit(after).ok());
    total_ops = FaultInjector::OpsSinceArm();
    FaultInjector::Disarm();
  }
  ASSERT_GE(total_ops, 4u) << "commit should write pages, sync, write root, "
                              "sync";

  for (uint64_t kill = 0; kill < total_ops; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill) + " of " +
                 std::to_string(total_ops));
    const std::string path = StorePath("kill-" + std::to_string(kill) +
                                       ".db");
    {
      auto store = PagedStore::Open(path, 64);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store.value()->Commit(before).ok());

      FaultInjector::Arm(kill, /*tear_killing_write=*/(kill % 2) == 1);
      Status died = store.value()->Commit(after);
      FaultInjector::Disarm();
      ASSERT_FALSE(died.ok()) << "commit must fail at the kill point";
      EXPECT_EQ(died.code(), StatusCode::kIOError);
      // The "dead process": drop the store object without cleanup.
    }

    // Reopen. Ops 0 .. total-2 die before or at the root-slot write, so
    // the root never lands (a torn root write fails its checksum) and the
    // previous generation must be byte-identical. Op total-1 is the final
    // fsync: the root bytes are already in the file, so the commit is
    // visible — and must then be COMPLETE, not partial.
    const bool root_landed = (kill == total_ops - 1);
    auto reopened = PagedStore::Open(path, 64);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE(reopened.value()->has_data());
    EXPECT_EQ(reopened.value()->generation(), root_landed ? 2u : 1u);
    auto loaded = reopened.value()->Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSnapshotsEqual(loaded.value(), root_landed ? after : before);

    // And the store is not wedged: the interrupted commit retries clean.
    ASSERT_TRUE(reopened.value()->Commit(after).ok());
    auto final_load = reopened.value()->Load();
    ASSERT_TRUE(final_load.ok());
    ExpectSnapshotsEqual(final_load.value(), after);
  }
}

// A commit killed on its final fsync may still have landed its root, so a
// later attempt in the same process must not overwrite the pages that
// root references: a crash during the retry must still recover the old or
// the complete new state, never the landed root over foreign pages.
TEST_F(StorageRecoveryTest, RetryNeverOverwritesPagesOfALandedRoot) {
  const DurableSnapshot v1 = MakeSnapshot(1);
  const DurableSnapshot v2 = MakeSnapshot(2);
  const DurableSnapshot v3 = MakeSnapshot(3);
  uint64_t total_ops = 0;
  {
    auto store = PagedStore::Open(StorePath("retry-dry.db"), 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(v1).ok());
    FaultInjector::Arm(1u << 30, /*tear_killing_write=*/false);
    ASSERT_TRUE(store.value()->Commit(v2).ok());
    total_ops = FaultInjector::OpsSinceArm();
    FaultInjector::Disarm();
  }
  const std::string path = StorePath("retry.db");
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(v1).ok());
    FaultInjector::Arm(total_ops - 1, /*tear_killing_write=*/false);
    ASSERT_FALSE(store.value()->Commit(v2).ok());  // root written, not synced
    // The retry dies right after its first page write.
    FaultInjector::Arm(1, /*tear_killing_write=*/false);
    ASSERT_FALSE(store.value()->Commit(v3).ok());
    FaultInjector::Disarm();
  }
  auto reopened = PagedStore::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->generation(), 2u);
  auto loaded = reopened.value()->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSnapshotsEqual(loaded.value(), v2);
}

// Killing the FIRST commit at every point must recover to the empty
// store — the pre-commit state of a store that never committed.
TEST_F(StorageRecoveryTest, FirstCommitKillPointsRecoverToEmptyStore) {
  const DurableSnapshot snapshot = MakeSnapshot(3);

  uint64_t total_ops = 0;
  {
    auto store = PagedStore::Open(StorePath("dry1.db"), 64);
    ASSERT_TRUE(store.ok());
    FaultInjector::Arm(1u << 30, false);
    ASSERT_TRUE(store.value()->Commit(snapshot).ok());
    total_ops = FaultInjector::OpsSinceArm();
    FaultInjector::Disarm();
  }

  for (uint64_t kill = 0; kill < total_ops; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    const std::string path = StorePath("kill1-" + std::to_string(kill) +
                                       ".db");
    {
      auto store = PagedStore::Open(path, 64);
      ASSERT_TRUE(store.ok());
      FaultInjector::Arm(kill, (kill % 2) == 0);
      Status died = store.value()->Commit(snapshot);
      FaultInjector::Disarm();
      ASSERT_FALSE(died.ok());
    }

    // Same atomicity split as above: only a kill on the final fsync (the
    // last op) leaves the already-written root visible.
    const bool root_landed = (kill == total_ops - 1);
    auto reopened = PagedStore::Open(path, 64);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->has_data(), root_landed);
    if (root_landed) {
      auto visible = reopened.value()->Load();
      ASSERT_TRUE(visible.ok()) << visible.status().ToString();
      ExpectSnapshotsEqual(visible.value(), snapshot);
    }

    ASSERT_TRUE(reopened.value()->Commit(snapshot).ok());
    auto loaded = reopened.value()->Load();
    ASSERT_TRUE(loaded.ok());
    ExpectSnapshotsEqual(loaded.value(), snapshot);
  }
}

TEST_F(StorageRecoveryTest, BitFlipInDataPageIsDetectedNeverSilentlyRead) {
  const std::string path = StorePath("flip.db");
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(MakeSnapshot(4)).ok());
  }

  // Flip a single bit inside the first data page (page 2 — table runs
  // start right after the two root slots).
  {
    auto file = File::Open(path, /*create=*/false);
    ASSERT_TRUE(file.ok());
    auto page = std::make_unique<Page>();
    ASSERT_TRUE(
        file.value()->ReadAt(2 * kPageSize, page->data(), kPageSize).ok());
    page->data()[kPageSize / 3] ^= std::byte{0x01};
    ASSERT_TRUE(
        file.value()->WriteAt(2 * kPageSize, page->data(), kPageSize).ok());
  }

  // The root is intact, so Open succeeds — but Load must detect the flip.
  auto reopened = PagedStore::Open(path, 64);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened.value()->has_data());
  auto loaded = reopened.value()->Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(StorageRecoveryTest, TruncatedFileIsDetectedNeverSilentlyRead) {
  const std::string path = StorePath("trunc.db");
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(MakeSnapshot(5)).ok());
  }

  // Cut the file mid-page: the tail page (the manifest) is now partial.
  {
    auto file = File::Open(path, /*create=*/false);
    ASSERT_TRUE(file.ok());
    auto size = file.value()->Size();
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE(file.value()->Truncate(size.value() - kPageSize / 2).ok());
  }

  auto reopened = PagedStore::Open(path, 64);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened.value()->has_data());
  auto loaded = reopened.value()->Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageRecoveryTest, DecomposedComponentsRoundTrip) {
  DurableSnapshot snapshot;
  snapshot.engine = "decomposed";
  snapshot.tables.push_back(MakeTable(1, 4));
  snapshot.certain.push_back({"R", 0});
  DurableSnapshot::ComponentRef component;
  DurableSnapshot::AlternativeRef alt_a;
  alt_a.probability = 0.3;
  alt_a.contributions.emplace_back(
      "r", std::vector<Tuple>{Tuple({Value::Integer(1), Value::Text("a")})});
  DurableSnapshot::AlternativeRef alt_b;
  alt_b.probability = 0.7;
  alt_b.contributions.emplace_back("r", std::vector<Tuple>{});
  component.alternatives.push_back(std::move(alt_a));
  component.alternatives.push_back(std::move(alt_b));
  snapshot.components.push_back(std::move(component));

  const std::string path = StorePath("decomposed.db");
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(snapshot).ok());
  }
  auto reopened = PagedStore::Open(path, 64);
  ASSERT_TRUE(reopened.ok());
  auto loaded = reopened.value()->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().engine, "decomposed");
  ASSERT_EQ(loaded.value().components.size(), 1u);
  const auto& restored = loaded.value().components[0];
  ASSERT_EQ(restored.alternatives.size(), 2u);
  EXPECT_EQ(Bits(restored.alternatives[0].probability), Bits(0.3));
  EXPECT_EQ(Bits(restored.alternatives[1].probability), Bits(0.7));
  ASSERT_EQ(restored.alternatives[0].contributions.size(), 1u);
  EXPECT_EQ(restored.alternatives[0].contributions[0].first, "r");
  ASSERT_EQ(restored.alternatives[0].contributions[0].second.size(), 1u);
  EXPECT_EQ(restored.alternatives[0].contributions[0].second[0],
            Tuple({Value::Integer(1), Value::Text("a")}));
  EXPECT_TRUE(restored.alternatives[1].contributions[0].second.empty());
}

// After a Load, rebuilt components bind to the runs they were loaded from
// by position, and only when their shape matches; a mismatched one is
// written again rather than bound to runs that are not its own.
TEST_F(StorageRecoveryTest, AdoptLoadedComponentsBindsOnlyMatchingShapes) {
  auto component = [](int64_t seed, int alternatives) {
    DurableSnapshot::ComponentRef ref;
    for (int a = 0; a < alternatives; ++a) {
      DurableSnapshot::AlternativeRef alt;
      alt.probability = 1.0 / alternatives;
      alt.contributions.emplace_back(
          "r", std::vector<Tuple>{Tuple({Value::Integer(seed * 10 + a),
                                         Value::Text("c")})});
      ref.alternatives.push_back(std::move(alt));
    }
    return ref;
  };
  DurableSnapshot snapshot;
  snapshot.engine = "decomposed";
  snapshot.tables.push_back(MakeTable(1, 4));
  snapshot.certain.push_back({"R", 0});
  snapshot.components.push_back(component(1, 2));
  snapshot.components.push_back(component(2, 3));
  const std::string path = StorePath("adopt.db");
  {
    auto store = PagedStore::Open(path, 16);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(snapshot).ok());
  }

  auto store = PagedStore::Open(path, 16);
  ASSERT_TRUE(store.ok());
  auto loaded = store.value()->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  DurableSnapshot restored = loaded.value();
  restored.components[0].instance = std::make_shared<int>(0);
  // The second component comes back with one alternative fewer.
  restored.components[1] = component(2, 2);
  restored.components[1].instance = std::make_shared<int>(1);
  store.value()->AdoptLoadedComponents(restored);

  const uint64_t flushes = store.value()->pool()->stats().flushes;
  ASSERT_TRUE(store.value()->Commit(restored).ok());
  // The mismatched component's two runs and the manifest; nothing else.
  EXPECT_EQ(store.value()->pool()->stats().flushes - flushes, 3u);
  auto reloaded = store.value()->Load();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded.value().components.size(), 2u);
  EXPECT_EQ(reloaded.value().components[0].alternatives.size(), 2u);
  EXPECT_EQ(reloaded.value().components[1].alternatives.size(), 2u);
  EXPECT_EQ(reloaded.value().components[1].alternatives[1].contributions[0]
                .second[0],
            Tuple({Value::Integer(21), Value::Text("c")}));
}

// ---- Read-path faults (ISSUE 10): a failing disk on the READ side must
// surface kIOError/kDataLoss deterministically — never hang, never
// silently succeed, and never "recover" an empty store over good data.

TEST_F(StorageRecoveryTest, ReadErrorDuringLoadSurfacesIOError) {
  const std::string path = StorePath("read-err.db");
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(MakeSnapshot(6)).ok());
  }
  auto reopened = PagedStore::Open(path, 64);
  ASSERT_TRUE(reopened.ok());
  FaultInjector::ArmRead(/*fail_after=*/0, FaultInjector::ReadFault::kError);
  auto loaded = reopened.value()->Load();
  FaultInjector::Disarm();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("injected fault"),
            std::string::npos)
      << loaded.status().ToString();

  // The device "recovers": the same store object loads clean (nothing
  // was cached in a half-read state).
  auto retried = reopened.value()->Load();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ExpectSnapshotsEqual(retried.value(), MakeSnapshot(6));
}

TEST_F(StorageRecoveryTest, ShortReadDuringLoadSurfacesDataLoss) {
  const std::string path = StorePath("read-short.db");
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(MakeSnapshot(7)).ok());
  }
  auto reopened = PagedStore::Open(path, 64);
  ASSERT_TRUE(reopened.ok());
  FaultInjector::ArmRead(/*fail_after=*/1, FaultInjector::ReadFault::kShort);
  auto loaded = reopened.value()->Load();
  FaultInjector::Disarm();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageRecoveryTest, EintrStormDuringLoadIsAbsorbedNotAnError) {
  const std::string path = StorePath("read-eintr.db");
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(MakeSnapshot(8)).ok());
  }
  auto reopened = PagedStore::Open(path, 64);
  ASSERT_TRUE(reopened.ok());
  FaultInjector::ArmRead(/*fail_after=*/0,
                         FaultInjector::ReadFault::kEintrStorm);
  auto loaded = reopened.value()->Load();
  const uint64_t retries = FaultInjector::EintrRetries();
  FaultInjector::Disarm();
  // Liveness: the storm was absorbed by the retry loop, and the data
  // came back intact — interruption is not corruption.
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(retries,
            static_cast<uint64_t>(FaultInjector::kEintrStormLength));
  ExpectSnapshotsEqual(loaded.value(), MakeSnapshot(8));
}

// The read-side analogue of EveryKillPointRecoversPreCommitState: fail
// the disk at EVERY read of an Open+Load sequence. Each kill point must
// produce a deterministic kIOError from Open or Load — in particular, a
// root slot that cannot be READ must fail Open, never masquerade as a
// store that has no data.
TEST_F(StorageRecoveryTest, EveryReadKillPointSurfacesErrorNeverEmptyStore) {
  const std::string path = StorePath("read-kill.db");
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(MakeSnapshot(9)).ok());
  }

  // Dry run: count the reads of a fresh Open+Load (a fresh pool each
  // time, so the count is reproducible — caching would hide reads).
  uint64_t total_reads = 0;
  {
    FaultInjector::ArmRead(1u << 30, FaultInjector::ReadFault::kError);
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Load().ok());
    total_reads = FaultInjector::ReadOpsSinceArm();
    FaultInjector::Disarm();
  }
  ASSERT_GE(total_reads, 4u) << "open reads 2 roots; load reads manifest "
                                "and data pages";

  for (uint64_t kill = 0; kill < total_reads; ++kill) {
    SCOPED_TRACE("read kill point " + std::to_string(kill) + " of " +
                 std::to_string(total_reads));
    FaultInjector::ArmRead(kill, FaultInjector::ReadFault::kError);
    auto store = PagedStore::Open(path, 64);
    if (store.ok()) {
      EXPECT_TRUE(store.value()->has_data())
          << "a read failure must never demote the store to empty";
      auto loaded = store.value()->Load();
      ASSERT_FALSE(loaded.ok()) << "kill point must surface, not succeed";
      EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    } else {
      EXPECT_EQ(store.status().code(), StatusCode::kIOError);
    }
    FaultInjector::Disarm();
  }

  // The disk behaves again: everything is still there.
  auto store = PagedStore::Open(path, 64);
  ASSERT_TRUE(store.ok());
  auto loaded = store.value()->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSnapshotsEqual(loaded.value(), MakeSnapshot(9));
}

// A checksum-VALID but STALE root: overwrite the newest root slot with a
// byte copy of the older one. Whatever the damage mechanism, recovery
// must land on a CONSISTENT committed generation (the stale one — its
// pages are never overwritten while a root could reference them) and
// stay committable; it must never mix generations or fail to open.
TEST_F(StorageRecoveryTest, StaleRootSlotRecoversConsistentOldGeneration) {
  const std::string path = StorePath("stale-root.db");
  const DurableSnapshot v1 = MakeSnapshot(10);
  const DurableSnapshot v2 = MakeSnapshot(11);
  {
    auto store = PagedStore::Open(path, 64);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(v1).ok());  // gen 1 -> slot 1
    ASSERT_TRUE(store.value()->Commit(v2).ok());  // gen 2 -> slot 0
  }
  {
    auto file = File::Open(path, /*create=*/false);
    ASSERT_TRUE(file.ok());
    auto slot1 = std::make_unique<Page>();
    ASSERT_TRUE(
        file.value()->ReadAt(1 * kPageSize, slot1->data(), kPageSize).ok());
    ASSERT_TRUE(
        file.value()->WriteAt(0 * kPageSize, slot1->data(), kPageSize).ok());
  }

  auto reopened = PagedStore::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(reopened.value()->has_data());
  EXPECT_EQ(reopened.value()->generation(), 1u);
  auto loaded = reopened.value()->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSnapshotsEqual(loaded.value(), v1);

  // Still committable past the rollback, and the new commit wins.
  ASSERT_TRUE(reopened.value()->Commit(v2).ok());
  auto after = reopened.value()->Load();
  ASSERT_TRUE(after.ok());
  ExpectSnapshotsEqual(after.value(), v2);
}

// A tiny pool (4 pages) must be enough for any commit/load — the store
// pins at most one page at a time.
TEST_F(StorageRecoveryTest, TinyPoolHandlesCommitAndLoad) {
  auto store = PagedStore::Open(StorePath("tiny.db"), 4);
  ASSERT_TRUE(store.ok());
  DurableSnapshot big;
  big.engine = "explicit";
  big.tables.push_back(MakeTable(1, 2000));  // dozens of pages
  big.worlds.push_back({1.0, {{"R", 0}}});
  ASSERT_TRUE(store.value()->Commit(big).ok());
  auto loaded = store.value()->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().tables.size(), 1u);
  EXPECT_EQ(loaded.value().tables[0]->num_rows(), 2000u);
  EXPECT_EQ(loaded.value().tables[0]->row(1999),
            MakeTable(1, 2000)->row(1999));
}

// ---------------------------------------------------------------------------
// Page-granular commits. A new table instance is diffed against the one
// the last generation bound to the same name, and only the pages whose
// rows changed are written; every other page of the run is reused. A
// reused page belongs to a landed root, so it must never be written again.
// ---------------------------------------------------------------------------

/// A decomposed-style snapshot whose certain core binds `table` as C.
DurableSnapshot CertainOnly(Database::TableHandle table) {
  DurableSnapshot snapshot;
  snapshot.engine = "decomposed";
  snapshot.tables.push_back(std::move(table));
  snapshot.certain.push_back({"C", 0});
  return snapshot;
}

Database::TableHandle WithRows(const Table& table, std::vector<Tuple> rows) {
  return std::make_shared<Table>(table.schema(), std::move(rows));
}

std::vector<std::byte> FileBytes(const std::string& path) {
  auto file = File::Open(path, /*create=*/false);
  EXPECT_TRUE(file.ok());
  auto size = file.value()->Size();
  EXPECT_TRUE(size.ok());
  std::vector<std::byte> bytes(size.value());
  EXPECT_TRUE(file.value()->ReadAt(0, bytes.data(), bytes.size()).ok());
  return bytes;
}

/// Every byte of `before` outside the two root slots is still in the file:
/// no page that existed before a commit was written by it.
void ExpectLandedPagesUntouched(const std::vector<std::byte>& before,
                                const std::string& path) {
  const std::vector<std::byte> after = FileBytes(path);
  ASSERT_GE(after.size(), before.size());
  for (size_t offset = 2 * kPageSize; offset < before.size();
       offset += kPageSize) {
    EXPECT_EQ(std::memcmp(before.data() + offset, after.data() + offset,
                          kPageSize),
              0)
        << "page " << offset / kPageSize << " was overwritten";
  }
}

/// The page count of `table`'s run when written alone into a new store.
uint64_t FreshRunPages(const std::string& path,
                       const Database::TableHandle& table) {
  auto store = PagedStore::Open(path, 16);
  EXPECT_TRUE(store.ok());
  EXPECT_TRUE(store.value()->Commit(CertainOnly(table)).ok());
  for (const auto& [instance, run] : store.value()->PersistedRuns()) {
    if (instance == table.get()) return run.page_count();
  }
  ADD_FAILURE() << "table not persisted";
  return 0;
}

TEST_F(StorageRecoveryTest, OneRowEditsFlushOnlyTheChangedPages) {
  constexpr int64_t kRows = 20000;
  const Database::TableHandle base = MakeTable(1, kRows);
  const Tuple extra({Value::Integer(-1), Value::Text("inserted")});
  struct Edit {
    std::string name;
    std::vector<Tuple> rows;
  };
  std::vector<Edit> edits;
  for (size_t at : {size_t{0}, size_t{kRows / 2}, size_t{kRows - 1}}) {
    const std::string where = "@" + std::to_string(at);
    std::vector<Tuple> inserted = base->rows();
    inserted.insert(inserted.begin() + static_cast<std::ptrdiff_t>(
                                           at == kRows - 1 ? kRows : at),
                    extra);
    edits.push_back({"insert" + where, std::move(inserted)});
    std::vector<Tuple> updated = base->rows();
    updated[at] = Tuple({Value::Integer(-2), Value::Text("updated")});
    edits.push_back({"update" + where, std::move(updated)});
    std::vector<Tuple> deleted = base->rows();
    deleted.erase(deleted.begin() + static_cast<std::ptrdiff_t>(at));
    edits.push_back({"delete" + where, std::move(deleted)});
  }

  for (Edit& edit : edits) {
    SCOPED_TRACE(edit.name);
    const std::string path = StorePath(edit.name + ".db");
    const Database::TableHandle next = WithRows(*base, std::move(edit.rows));
    {
      auto store = PagedStore::Open(path, 64);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store.value()->Commit(CertainOnly(base)).ok());
      const std::vector<std::byte> landed = FileBytes(path);
      const uint64_t flushes = store.value()->pool()->stats().flushes;
      ASSERT_TRUE(store.value()->Commit(CertainOnly(next)).ok());
      // At most 4 data pages, plus the one-page manifest.
      EXPECT_LE(store.value()->pool()->stats().flushes - flushes, 5u);
      ExpectLandedPagesUntouched(landed, path);
    }
    auto reopened = PagedStore::Open(path, 64);
    ASSERT_TRUE(reopened.ok());
    auto loaded = reopened.value()->Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSnapshotsEqual(loaded.value(), CertainOnly(next));
    uint64_t pages = 0;
    for (const auto& [instance, run] : reopened.value()->PersistedRuns()) {
      pages += run.page_count();
    }
    EXPECT_LE(pages, FreshRunPages(StorePath(edit.name + "-fresh.db"), next) +
                         1);
  }
}

// The diff compares encodings, not Tuple equality: Integer(1) equals
// Real(1.0), and Integer(2^53) equals Real(2^53), but a kept page must
// hold exactly the row it stands for.
TEST_F(StorageRecoveryTest, RowsEqualOnlyAsValuesAreRewritten) {
  const std::string path = StorePath("encodings.db");
  constexpr int64_t kBig = int64_t{1} << 53;
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 3000; ++i) {
    rows.push_back(Tuple({Value::Integer(i), Value::Integer(kBig)}));
  }
  const Database::TableHandle v1 = std::make_shared<Table>(
      Schema({Column("K", DataType::kInteger), Column("V", DataType::kReal)}),
      rows);
  rows[10] =
      Tuple({Value::Integer(10), Value::Real(static_cast<double>(kBig))});
  rows[1500] = Tuple({Value::Real(1500.0), Value::Integer(kBig)});
  rows[2999] = Tuple({Value::Integer(2999), Value::Real(-0.0)});
  const Database::TableHandle v2 = WithRows(*v1, rows);
  rows[2999] = Tuple({Value::Integer(2999), Value::Real(0.0)});
  const Database::TableHandle v3 = WithRows(*v1, rows);
  ASSERT_TRUE(v1->row(10) == v2->row(10)) << "the rows must be value-equal";
  ASSERT_TRUE(v2->row(2999) == v3->row(2999));
  {
    auto store = PagedStore::Open(path, 16);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(CertainOnly(v1)).ok());
    ASSERT_TRUE(store.value()->Commit(CertainOnly(v2)).ok());
    ASSERT_TRUE(store.value()->Commit(CertainOnly(v3)).ok());
  }
  auto reopened = PagedStore::Open(path, 16);
  ASSERT_TRUE(reopened.ok());
  auto loaded = reopened.value()->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& got = *loaded.value().tables.at(0);
  ASSERT_EQ(got.num_rows(), 3000u);
  EXPECT_EQ(got.row(10).value(1).type(), DataType::kReal);
  EXPECT_EQ(got.row(10).value(1).AsReal(), static_cast<double>(kBig));
  EXPECT_EQ(got.row(1500).value(0).type(), DataType::kReal);
  EXPECT_EQ(got.row(2999).value(1).type(), DataType::kReal);
  EXPECT_EQ(Bits(got.row(2999).value(1).AsReal()), Bits(0.0));
}

// The writer decides from the recorded page fills alone which kept pages
// to absorb, and re-encodes their rows from the new instance. Fills that
// understate every page's bytes make the fresh region absorb the page
// before it and every page after it; the run must still hold exactly the
// new rows, in order.
TEST_F(StorageRecoveryTest, AbsorbedPagesAreReencodedRowForRow) {
  auto file = File::Open(StorePath("absorb.db"), /*create=*/true);
  ASSERT_TRUE(file.ok());
  BufferPool pool(file.value().get(), 16);
  uint64_t next = 2;
  const Database::TableHandle v1 = MakeTable(1, 2000);
  auto first = PagedTable::Write(v1->schema(), v1->rows(), &pool, &next);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GE(first.value().run().page_count(), 6u);
  std::vector<PageFill> understated = first.value().fills();
  for (PageFill& fill : understated) fill.bytes = 0;

  std::vector<Tuple> rows = v1->rows();
  rows[600] = Tuple({Value::Integer(-1), Value::Text("updated")});
  const PageRun base_run = first.value().run();
  const PagedTable::Base base{&base_run, &understated, &v1->schema(),
                              &v1->rows()};
  auto second = PagedTable::Write(v1->schema(), rows, &pool, &next, &base);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second.value().fills().size(),
            second.value().run().page_count());
  ASSERT_EQ(second.value().run().extents.size(), 2u);
  EXPECT_EQ(second.value().run().extents.front().page_count, 1u)
      << "the page before the edit was absorbed";
  EXPECT_GE(second.value().run().extents.back().first_page,
            base_run.extents.front().first_page + base_run.page_count())
      << "the pages after the edit were absorbed";

  auto table = PagedTable(&pool, second.value().run()).Materialize();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table.value()->num_rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(table.value()->row(i), rows[i]) << "row " << i;
  }
}

// The every-kill-point battery over a commit that reuses pages: each
// outcome is the old state or the complete new one, the pages the old
// root references are never written, and a retry after reopen reuses
// them again without writing them either.
TEST_F(StorageRecoveryTest, EveryKillPointOfAPageReusingCommitNeverOverwrites) {
  const Database::TableHandle v1 = MakeTable(1, 2000);
  std::vector<Tuple> rows = v1->rows();
  rows[1000] = Tuple({Value::Integer(-1), Value::Text("updated")});
  const DurableSnapshot before = CertainOnly(v1);
  const DurableSnapshot after = CertainOnly(WithRows(*v1, rows));

  uint64_t total_ops = 0;
  {
    auto store = PagedStore::Open(StorePath("reuse-dry.db"), 16);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(before).ok());
    FaultInjector::Arm(1u << 30, /*tear_killing_write=*/false);
    ASSERT_TRUE(store.value()->Commit(after).ok());
    total_ops = FaultInjector::OpsSinceArm();
    FaultInjector::Disarm();
  }
  ASSERT_GE(total_ops, 4u);
  // At most two data pages and the manifest, two fsyncs and the root.
  ASSERT_LE(total_ops, 6u) << "a one-row edit writes a few pages, not the run";

  for (uint64_t kill = 0; kill < total_ops; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill) + " of " +
                 std::to_string(total_ops));
    const std::string path =
        StorePath("reuse-kill-" + std::to_string(kill) + ".db");
    std::vector<std::byte> landed;
    {
      auto store = PagedStore::Open(path, 16);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store.value()->Commit(before).ok());
      landed = FileBytes(path);
      FaultInjector::Arm(kill, /*tear_killing_write=*/(kill % 2) == 1);
      EXPECT_FALSE(store.value()->Commit(after).ok());
      FaultInjector::Disarm();
    }
    ExpectLandedPagesUntouched(landed, path);

    const bool root_landed = kill == total_ops - 1;
    auto reopened = PagedStore::Open(path, 16);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto loaded = reopened.value()->Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSnapshotsEqual(loaded.value(), root_landed ? after : before);

    ASSERT_TRUE(reopened.value()->Commit(after).ok());
    ExpectLandedPagesUntouched(landed, path);
    auto final_load = reopened.value()->Load();
    ASSERT_TRUE(final_load.ok()) << final_load.status().ToString();
    ExpectSnapshotsEqual(final_load.value(), after);
  }
}

// ---- Manifest decoding never trusts sizes read from disk.

/// Replaces the bytes of the single-page, single-record manifest the
/// newest root references, and re-seals the page, so only the decoder
/// can object.
void RewriteManifest(const std::string& path,
                     const std::function<void(std::vector<std::byte>*)>& edit) {
  auto file = File::Open(path, /*create=*/false);
  ASSERT_TRUE(file.ok());
  uint64_t best_generation = 0;
  uint64_t manifest_page = 0;
  for (uint64_t slot = 0; slot < 2; ++slot) {
    auto page = std::make_unique<Page>();
    ASSERT_TRUE(file.value()
                    ->ReadAt(slot * kPageSize, page->data(), kPageSize)
                    .ok());
    if (!page->VerifyChecksum(slot).ok()) continue;
    auto record = page->Record(0);
    ASSERT_TRUE(record.ok());
    codec::Reader r(record.value().first, record.value().second);
    ASSERT_TRUE(r.U32().ok());
    const uint64_t generation = r.U64().value();
    const uint64_t manifest_start = r.U64().value();
    ASSERT_EQ(r.U64().value(), 1u) << "a one-page manifest";
    if (generation > best_generation) {
      best_generation = generation;
      manifest_page = manifest_start;
    }
  }
  ASSERT_GE(manifest_page, 2u);
  auto page = std::make_unique<Page>();
  ASSERT_TRUE(file.value()
                  ->ReadAt(manifest_page * kPageSize, page->data(), kPageSize)
                  .ok());
  ASSERT_EQ(page->num_records(), 1u);
  auto record = page->Record(0);
  ASSERT_TRUE(record.ok());
  std::vector<std::byte> bytes(record.value().first,
                               record.value().first + record.value().second);
  edit(&bytes);
  page->Format(manifest_page);
  ASSERT_TRUE(page->AppendRecord(bytes.data(), bytes.size()));
  page->SealChecksum();
  ASSERT_TRUE(file.value()
                  ->WriteAt(manifest_page * kPageSize, page->data(), kPageSize)
                  .ok());
}

void PutU64At(std::vector<std::byte>* bytes, size_t offset, uint64_t v) {
  ASSERT_LE(offset + sizeof(v), bytes->size());
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

Status LoadStatus(const std::string& path) {
  auto store = PagedStore::Open(path, 16);
  if (!store.ok()) return store.status();
  return store.value()->Load().status();
}

TEST_F(StorageRecoveryTest, OversizedManifestCountsAreDataLossNotACrash) {
  // Offsets into the manifest: u32 magic, then the engine name as u32
  // length + bytes, then the table count and the first table run.
  const size_t tables_at = 4 + 4 + std::string("explicit").size();
  const std::string path = StorePath("counts.db");
  for (size_t offset : {tables_at, tables_at + 8, tables_at + 16}) {
    SCOPED_TRACE("u64 at manifest offset " + std::to_string(offset));
    std::filesystem::remove(path);
    {
      auto store = PagedStore::Open(path, 16);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store.value()->Commit(MakeSnapshot(1)).ok());
    }
    // The table count, the first run's row count, its extent count.
    RewriteManifest(path, [offset](std::vector<std::byte>* bytes) {
      PutU64At(bytes, offset, uint64_t{1} << 60);
    });
    const Status status = LoadStatus(path);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }

  // A component run whose row count its pages cannot hold: the reserve
  // for its tuples must never see that count.
  std::filesystem::remove(path);
  {
    DurableSnapshot snapshot;
    snapshot.engine = "decomposed";
    DurableSnapshot::ComponentRef component;
    DurableSnapshot::AlternativeRef alt;
    alt.contributions.emplace_back(
        "r", std::vector<Tuple>{Tuple({Value::Integer(1)})});
    component.alternatives.push_back(std::move(alt));
    snapshot.components.push_back(std::move(component));
    auto store = PagedStore::Open(path, 16);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(snapshot).ok());
  }
  // magic, engine, no tables, no worlds, no certain relations, one
  // component of one alternative (probability, one contribution named
  // "r"), then the run's row count.
  const size_t rows_at = 4 + 4 + std::string("decomposed").size() + 8 + 8 +
                         8 + 8 + 8 + 8 + 8 + 4 + 1;
  RewriteManifest(path, [rows_at](std::vector<std::byte>* bytes) {
    PutU64At(bytes, rows_at, uint64_t{1} << 60);
  });
  const Status status = LoadStatus(path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST_F(StorageRecoveryTest, ContiguousRunFormatIsDataLossNotMisread) {
  const std::string path = StorePath("old-format.db");
  {
    auto store = PagedStore::Open(path, 16);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Commit(MakeSnapshot(1)).ok());
  }
  // A manifest of the older layout starts with the magic "MBMF"; the
  // magic alone must stop the decoder.
  RewriteManifest(path, [](std::vector<std::byte>* bytes) {
    const uint32_t contiguous_magic = 0x4D424D46;
    std::memcpy(bytes->data(), &contiguous_magic, sizeof(contiguous_magic));
  });
  const Status status = LoadStatus(path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("contiguous-run format"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Session level. A paged session builds each statement's new state on a
// clone, commits it, and adopts it only after the commit succeeded. So a
// statement whose commit dies at any write/fsync has no effect in memory,
// and the store holds the old generation or the complete new one.
// ---------------------------------------------------------------------------

using isql::EngineMode;
using isql::Session;
using isql::SessionOptions;
using isql::StorageMode;

constexpr char kSessionFixture[] = R"sql(
  create table R (K integer primary key, V integer);
  insert into R values (1, 10), (2, 20), (3, 30);
  create table S (K integer, V integer, W integer);
  insert into S values (1, 1, 1), (1, 2, 3), (2, 3, 1), (2, 4, 1), (3, 5, 2);
  create table I as select K, V from S repair by key K weight W;
  create table T (K integer, V integer);
  insert into T values (1, 7), (1, 8), (2, 9), (2, 6);
  create table J as select K, V from T repair by key K;
)sql";

const std::vector<std::string>& SessionProbes() {
  static const std::vector<std::string> probes = {
      "select * from R;",
      "select possible K, V from I;",
      "select conf, K, V from I;",
      "select certain count(*) from R;",
      "select possible K, V from J;",
  };
  return probes;
}

/// The formatted answer (or error) of every probe.
std::string ProbeSession(Session& session) {
  std::string out;
  for (const std::string& probe : SessionProbes()) {
    auto r = session.Execute(probe);
    out += probe + "\n";
    out += r.ok() ? isql::FormatQueryResult(*r) : r.status().ToString();
    out += "\n";
  }
  return out;
}

SessionOptions SessionStorageOptions(EngineMode engine, bool governed,
                                     const std::string& dir) {
  SessionOptions options;
  options.engine = engine;
  options.storage = dir.empty() ? StorageMode::kMemory : StorageMode::kPaged;
  options.storage_dir = dir;
  options.pool_pages = 16;
  // Generous limits arm a QueryContext for every statement without ever
  // tripping it: the governed path, same verdicts.
  if (governed) options.statement_timeout_ms = 600'000;
  return options;
}

/// Probe state of a memory session that ran the fixture plus `statements`.
std::string TwinState(EngineMode engine,
                      const std::vector<std::string>& statements) {
  Session twin(SessionStorageOptions(engine, false, ""));
  maybms::testing::ExecScript(twin, kSessionFixture);
  for (const std::string& sql : statements) maybms::testing::Exec(twin, sql);
  return ProbeSession(twin);
}

class PagedSessionFaultTest
    : public StorageRecoveryTest,
      public ::testing::WithParamInterface<std::tuple<EngineMode, bool>> {};

TEST_P(PagedSessionFaultTest, FailedCommitHasNoEffect) {
  const auto [engine, governed] = GetParam();
  const std::string statement = "insert into R values (4, 40), (5, 50);";
  const std::string next = "update R set V = V + 1 where K = 1;";
  const std::string pre = TwinState(engine, {});
  const std::string post = TwinState(engine, {statement});
  const std::string pre_next = TwinState(engine, {next});
  const std::string post_next = TwinState(engine, {statement, next});
  auto options = [&](const std::string& name) {
    const std::filesystem::path dir = dir_ / name;
    std::filesystem::create_directories(dir);
    return SessionStorageOptions(engine, governed, dir.string());
  };

  // Dry run: the statement's durability ops are its kill points.
  uint64_t total_ops = 0;
  {
    Session session(options("dry"));
    maybms::testing::ExecScript(session, kSessionFixture);
    FaultInjector::Arm(1u << 30, /*tear_killing_write=*/false);
    MAYBMS_ASSERT_OK(session.Execute(statement).status());
    total_ops = FaultInjector::OpsSinceArm();
    FaultInjector::Disarm();
    EXPECT_EQ(ProbeSession(session), post);
  }
  ASSERT_GE(total_ops, 4u) << "a commit writes pages, syncs, writes the "
                              "root and syncs";

  for (uint64_t kill = 0; kill < total_ops; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill) + " of " +
                 std::to_string(total_ops));
    const bool tear = (kill % 2) == 1;
    // Only a kill on the final fsync leaves the new root in the file.
    const bool root_landed = kill == total_ops - 1;

    // The live session: the error has no effect, and the session goes on.
    const std::string live = "live-" + std::to_string(kill);
    {
      Session session(options(live));
      maybms::testing::ExecScript(session, kSessionFixture);
      const uint64_t generation = session.paged_store()->generation();
      FaultInjector::Arm(kill, tear);
      auto died = session.Execute(statement);
      FaultInjector::Disarm();
      ASSERT_FALSE(died.ok()) << "the commit must fail at the kill point";
      EXPECT_EQ(died.status().code(), StatusCode::kIOError)
          << died.status().ToString();
      EXPECT_EQ(ProbeSession(session), pre);
      EXPECT_EQ(session.paged_store()->generation(), generation);
      MAYBMS_ASSERT_OK(session.Execute(next).status());
      EXPECT_EQ(ProbeSession(session), pre_next);
    }
    {
      Session reopened(options(live));
      EXPECT_EQ(ProbeSession(reopened), pre_next);
    }

    // The "dead process": the session is dropped right after the failed
    // commit, and a reopen sees the old state or the complete new one.
    const std::string dead = "dead-" + std::to_string(kill);
    {
      Session session(options(dead));
      maybms::testing::ExecScript(session, kSessionFixture);
      FaultInjector::Arm(kill, tear);
      EXPECT_FALSE(session.Execute(statement).ok());
      FaultInjector::Disarm();
    }
    Session reopened(options(dead));
    EXPECT_EQ(ProbeSession(reopened), root_landed ? post : pre);
    MAYBMS_ASSERT_OK(reopened.Execute(next).status());
    EXPECT_EQ(ProbeSession(reopened), root_landed ? post_next : pre_next);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndGovernance, PagedSessionFaultTest,
    ::testing::Combine(::testing::Values(EngineMode::kExplicit,
                                         EngineMode::kDecomposed),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<EngineMode, bool>>&
           param_info) {
      return std::string(std::get<0>(param_info.param) ==
                                 EngineMode::kExplicit
                             ? "Explicit"
                             : "Decomposed") +
             (std::get<1>(param_info.param) ? "_Governed" : "_Ungoverned");
    });

// ---------------------------------------------------------------------------
// Component-run dedup: PagedStore keys tables and decomposed components in
// one map on their immutable instances, so a commit writes the pages of
// what the statement changed and nothing else.
// ---------------------------------------------------------------------------

class ComponentDedupTest : public StorageRecoveryTest {
 protected:
  void SetUp() override {
    StorageRecoveryTest::SetUp();
    session_ = std::make_unique<Session>(SessionStorageOptions(
        EngineMode::kDecomposed, false, (dir_ / "dedup").string()));
    maybms::testing::ExecScript(*session_, kSessionFixture);
  }

  const std::vector<worlds::ComponentHandle>& Components() {
    return static_cast<const worlds::DecomposedWorldSet&>(
               session_->world_set())
        .components();
  }

  /// Runs `sql` and returns the runs its commit added, plus the pages it
  /// flushed through `flushed`. An added run may keep pages of the runs
  /// before it; those are remembered for PagesWithManifest.
  std::vector<std::pair<const void*, PageRun>> CommitRuns(
      const std::string& sql, uint64_t* flushed) {
    PagedStore* store = session_->paged_store();
    std::set<std::pair<const void*, uint64_t>> before;
    pages_before_.clear();
    for (const auto& [instance, run] : store->PersistedRuns()) {
      before.emplace(instance, run.extents.front().first_page);
      for (uint64_t page : PagesOf(run)) pages_before_.insert(page);
    }
    const uint64_t flushes = store->pool()->stats().flushes;
    MAYBMS_EXPECT_OK(session_->Execute(sql).status());
    *flushed = store->pool()->stats().flushes - flushes;
    std::vector<std::pair<const void*, PageRun>> added;
    for (const auto& [instance, run] : store->PersistedRuns()) {
      if (before.count({instance, run.extents.front().first_page}) == 0) {
        added.emplace_back(instance, run);
      }
    }
    return added;
  }

  static std::vector<uint64_t> PagesOf(const PageRun& run) {
    std::vector<uint64_t> pages;
    for (const PageExtent& extent : run.extents) {
      for (uint64_t p = 0; p < extent.page_count; ++p) {
        pages.push_back(extent.first_page + p);
      }
    }
    return pages;
  }

  /// Pages of `runs` that no run held before the last CommitRuns — the
  /// pages that commit wrote — plus the one manifest page every commit
  /// writes.
  uint64_t PagesWithManifest(
      const std::vector<std::pair<const void*, PageRun>>& runs) const {
    std::set<uint64_t> fresh;
    for (const auto& [instance, run] : runs) {
      for (uint64_t page : PagesOf(run)) {
        if (pages_before_.count(page) == 0) fresh.insert(page);
      }
    }
    return fresh.size() + 1;
  }

  bool Persisted(const void* instance) {
    for (const auto& [key, run] : session_->paged_store()->PersistedRuns()) {
      if (key == instance) return true;
    }
    return false;
  }

  std::unique_ptr<Session> session_;
  std::set<uint64_t> pages_before_;
};

TEST_F(ComponentDedupTest, CertainOnlyCommitWritesNoComponentPages) {
  const std::vector<worlds::ComponentHandle> before = Components();
  ASSERT_EQ(before.size(), 5u);  // I: keys 1, 2, 3; J: keys 1, 2
  for (const auto& component : before) EXPECT_TRUE(Persisted(component.get()));

  uint64_t flushed = 0;
  const auto added = CommitRuns("insert into R values (4, 40);", &flushed);
  ASSERT_EQ(Components(), before) << "a certain-only write keeps every "
                                     "component instance";
  ASSERT_EQ(added.size(), 1u) << "only R's new instance is written";
  for (const auto& component : before) {
    EXPECT_NE(added[0].first, component.get());
    EXPECT_TRUE(Persisted(component.get()));
  }
  EXPECT_EQ(flushed, PagesWithManifest(added));
}

// A row-local update distributes over the components: only the component
// whose alternatives it changes gets a new instance, and the commit
// writes only that component's runs.
TEST_F(ComponentDedupTest, RowLocalUpdateWritesOnlyTheTouchedComponent) {
  const std::vector<worlds::ComponentHandle> before = Components();
  ASSERT_EQ(before.size(), 5u);
  uint64_t flushed = 0;
  const auto added =
      CommitRuns("update I set V = V + 10 where K = 1;", &flushed);
  const std::vector<worlds::ComponentHandle>& after = Components();
  ASSERT_EQ(after.size(), before.size());
  const worlds::Component* touched = nullptr;
  for (size_t i = 0; i < before.size(); ++i) {
    if (after[i] == before[i]) {
      EXPECT_TRUE(Persisted(before[i].get()));
      continue;
    }
    EXPECT_EQ(touched, nullptr) << "more than one component changed";
    touched = after[i].get();
    EXPECT_FALSE(Persisted(before[i].get()));
  }
  ASSERT_NE(touched, nullptr);
  size_t contributions = 0;
  for (const auto& alt : touched->alternatives) {
    contributions += alt.tuples.size();
    for (const Tuple& row : alt.tuples.at("i")) {
      EXPECT_GE(row.value(1).AsInteger(), 11);
    }
  }
  ASSERT_EQ(added.size(), contributions) << "only the touched component";
  for (const auto& [instance, run] : added) EXPECT_EQ(instance, touched);
  EXPECT_EQ(flushed, PagesWithManifest(added));
}

TEST_F(ComponentDedupTest, RepairedUpdateWritesOnlyTheMergedComponent) {
  const std::vector<worlds::ComponentHandle> before = Components();
  ASSERT_EQ(before.size(), 5u);
  std::set<const void*> j_components;
  for (const auto& component : before) {
    if (component->ContributesTo("j")) j_components.insert(component.get());
  }
  ASSERT_EQ(j_components.size(), 2u);

  uint64_t flushed = 0;
  const auto added =
      CommitRuns("update I set V = V + 10 where K in (select K from I "
                 "where K = 1);",
                 &flushed);
  const std::vector<worlds::ComponentHandle>& after = Components();
  // I's three components merged into one (2 × 2 × 1 alternatives); J's two
  // are the same instances as before.
  ASSERT_EQ(after.size(), 3u);
  const worlds::Component* merged = nullptr;
  for (const auto& component : after) {
    if (j_components.count(component.get()) == 0) merged = component.get();
  }
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->size(), 4u);
  for (const auto& component : before) {
    // The merged-away instances are no longer persisted; J's are, unmoved.
    EXPECT_EQ(Persisted(component.get()),
              j_components.count(component.get()) > 0);
  }

  size_t merged_runs = 0;
  size_t contributions = 0;
  for (const auto& alt : merged->alternatives) {
    contributions += alt.tuples.size();
  }
  for (const auto& [instance, run] : added) {
    EXPECT_EQ(j_components.count(instance), 0u) << "J's components rewritten";
    if (instance == merged) ++merged_runs;
  }
  EXPECT_EQ(merged_runs, contributions);
  // Besides the merged component, only the emptied certain part of I is
  // new.
  EXPECT_EQ(added.size(), contributions + 1);
  EXPECT_EQ(flushed, PagesWithManifest(added));
}

TEST_F(ComponentDedupTest, RestartCommitRestartRoundTrips) {
  const std::filesystem::path dir = dir_ / "dedup";
  const std::vector<std::string> writes = {
      "insert into R values (4, 40);",
      "update I set V = V + 10 where K = 2;",
      "insert into R values (5, 50);",
  };
  session_.reset();
  session_ = std::make_unique<Session>(
      SessionStorageOptions(EngineMode::kDecomposed, false, dir.string()));
  EXPECT_EQ(ProbeSession(*session_), TwinState(EngineMode::kDecomposed, {}));

  // The restart bound the rebuilt components to the runs they were
  // loaded from, so the first commit after it writes R and nothing else.
  for (const auto& component : Components()) {
    EXPECT_TRUE(Persisted(component.get()));
  }
  uint64_t flushed = 0;
  auto added = CommitRuns(writes[0], &flushed);
  for (const auto& component : Components()) {
    EXPECT_TRUE(Persisted(component.get()));
  }
  EXPECT_EQ(added.size(), 1u) << "R only: no component is rewritten";
  EXPECT_EQ(flushed, PagesWithManifest(added));
  added = CommitRuns(writes[1], &flushed);
  EXPECT_EQ(flushed, PagesWithManifest(added));
  added = CommitRuns(writes[2], &flushed);
  EXPECT_EQ(added.size(), 1u);
  EXPECT_EQ(flushed, PagesWithManifest(added));
  const std::string live = ProbeSession(*session_);
  EXPECT_EQ(live, TwinState(EngineMode::kDecomposed, writes));

  session_.reset();
  Session reopened(
      SessionStorageOptions(EngineMode::kDecomposed, false, dir.string()));
  EXPECT_EQ(ProbeSession(reopened), live);
}

// A restart followed by a one-row write on a large certain table writes
// a few pages of that table and the manifest, and no component pages.
TEST_F(ComponentDedupTest, RestartThenOneRowWriteFlushesNoComponentPages) {
  std::string values;
  for (int k = 0; k < 2000; ++k) {
    values += (k > 0 ? ", (" : "(") + std::to_string(k) + ", " +
              std::to_string(k % 97) + ")";
  }
  maybms::testing::Exec(*session_,
                        "create table C (K integer primary key, V integer);");
  maybms::testing::Exec(*session_, "insert into C values " + values + ";");
  const std::filesystem::path dir = dir_ / "dedup";
  session_.reset();
  session_ = std::make_unique<Session>(
      SessionStorageOptions(EngineMode::kDecomposed, false, dir.string()));
  const std::vector<worlds::ComponentHandle> components = Components();
  ASSERT_EQ(components.size(), 5u);

  uint64_t flushed = 0;
  const auto added =
      CommitRuns("update C set V = V + 1 where K = 1000;", &flushed);
  ASSERT_EQ(added.size(), 1u) << "C's new instance only";
  for (const auto& component : components) {
    EXPECT_NE(added[0].first, component.get());
    EXPECT_TRUE(Persisted(component.get()));
  }
  EXPECT_EQ(flushed, PagesWithManifest(added));
  EXPECT_LE(flushed, 3u) << "a page or two of C, and the manifest";
}

}  // namespace
}  // namespace maybms::storage
