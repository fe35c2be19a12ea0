// Buffer-pool contract tests (ISSUE 8): pin-count correctness, LRU
// eviction that never touches a pinned page, checksum-verified reads,
// deterministic kResourceExhausted when every frame is pinned, and a
// multi-threaded pin/unpin/read churn stress against a pool smaller than
// the working set. The stress test runs under TSan in CI.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/page.h"

namespace maybms::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("maybms-pool-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
    auto file = File::Open((dir_ / "pool.db").string(), /*create=*/true);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    file_ = std::move(file).value();
  }

  void TearDown() override {
    file_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Seals `count` pages to disk, each holding one record that encodes its
  /// page id, so reads are verifiable.
  void WritePages(uint64_t count) {
    auto page = std::make_unique<Page>();
    for (uint64_t id = 0; id < count; ++id) {
      page->Format(id);
      const uint64_t payload = PayloadFor(id);
      ASSERT_TRUE(page->AppendRecord(&payload, sizeof(payload)));
      page->SealChecksum();
      ASSERT_TRUE(
          file_->WriteAt(id * kPageSize, page->data(), kPageSize).ok());
    }
  }

  static uint64_t PayloadFor(uint64_t page_id) {
    return page_id * 2654435761u + 17;
  }

  static uint64_t ReadPayload(const Page& page) {
    auto record = page.Record(0);
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    uint64_t payload = 0;
    std::memcpy(&payload, record.value().first, sizeof(payload));
    return payload;
  }

  std::filesystem::path dir_;
  std::unique_ptr<File> file_;
};

TEST_F(BufferPoolTest, PinReadsAndCachesPages) {
  WritePages(4);
  BufferPool pool(file_.get(), 8);

  for (uint64_t id = 0; id < 4; ++id) {
    auto ref = pool.Pin(id);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ref.value().page_id(), id);
    EXPECT_EQ(ReadPayload(ref.value().page()), PayloadFor(id));
  }
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_EQ(pool.stats().hits, 0u);

  // Second round: all cached.
  for (uint64_t id = 0; id < 4; ++id) {
    auto ref = pool.Pin(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ReadPayload(ref.value().page()), PayloadFor(id));
  }
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_EQ(pool.stats().hits, 4u);
}

TEST_F(BufferPoolTest, PinCountsDropToZeroOnRelease) {
  WritePages(2);
  BufferPool pool(file_.get(), 4);

  auto a = pool.Pin(0);
  auto b = pool.Pin(1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(pool.PinnedFrames(), 2u);

  // A second pin on the same page bumps the same frame.
  auto a2 = pool.Pin(0);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(pool.PinnedFrames(), 2u);

  a.value().Release();
  EXPECT_EQ(pool.PinnedFrames(), 2u);  // a2 still pins frame 0
  a2.value().Release();
  EXPECT_EQ(pool.PinnedFrames(), 1u);
  b.value().Release();
  EXPECT_EQ(pool.PinnedFrames(), 0u);

  // Release is idempotent; moved-from refs do not double-unpin.
  a.value().Release();
  PageRef moved = std::move(b).value();
  moved.Release();
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsedUnpinnedFrame) {
  WritePages(4);
  BufferPool pool(file_.get(), 2);

  { auto r = pool.Pin(0); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Pin(1); ASSERT_TRUE(r.ok()); }
  // Touch 0 so 1 is the LRU victim.
  { auto r = pool.Pin(0); ASSERT_TRUE(r.ok()); }

  { auto r = pool.Pin(2); ASSERT_TRUE(r.ok()); }  // evicts 1
  EXPECT_EQ(pool.stats().evictions, 1u);

  // 0 must still be cached (hit), 1 must not (miss).
  const uint64_t hits_before = pool.stats().hits;
  { auto r = pool.Pin(0); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pool.stats().hits, hits_before + 1);
  const uint64_t misses_before = pool.stats().misses;
  { auto r = pool.Pin(1); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST_F(BufferPoolTest, NeverEvictsAPinnedPage) {
  WritePages(6);
  BufferPool pool(file_.get(), 2);

  auto pinned = pool.Pin(0);
  ASSERT_TRUE(pinned.ok());

  // Churn every other page through the single remaining frame.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t id = 1; id < 6; ++id) {
      auto r = pool.Pin(id);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(ReadPayload(r.value().page()), PayloadFor(id));
    }
  }

  // The pinned frame's bytes were never evicted or clobbered.
  EXPECT_EQ(ReadPayload(pinned.value().page()), PayloadFor(0));
  EXPECT_EQ(pool.PinnedFrames(), 1u);
}

TEST_F(BufferPoolTest, AllPagesPinnedIsAStatusNotATrap) {
  WritePages(5);
  BufferPool pool(file_.get(), 4);

  std::vector<PageRef> refs;
  for (uint64_t id = 0; id < 4; ++id) {
    auto r = pool.Pin(id);
    ASSERT_TRUE(r.ok());
    refs.push_back(std::move(r).value());
  }

  auto fifth = pool.Pin(4);
  ASSERT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fifth.status().ToString(),
            "ResourceExhausted: buffer pool: all 4 pages pinned; release a "
            "PageRef before pinning more");

  // Releasing one pin makes the same Pin succeed.
  refs.pop_back();
  auto retry = pool.Pin(4);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(BufferPoolTest, DirtyPagesAreWrittenBackOnEviction) {
  WritePages(3);
  BufferPool pool(file_.get(), 2);

  {
    auto r = pool.NewPage(10);
    ASSERT_TRUE(r.ok());
    const uint64_t payload = PayloadFor(10);
    ASSERT_TRUE(
        r.value().mutable_page()->AppendRecord(&payload, sizeof(payload)));
  }
  // Evict page 10 by churning the two frames.
  { auto r = pool.Pin(0); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Pin(1); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Pin(2); ASSERT_TRUE(r.ok()); }
  ASSERT_GE(pool.stats().flushes, 1u);

  // Reading it back goes to disk and passes checksum verification.
  auto back = pool.Pin(10);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(ReadPayload(back.value().page()), PayloadFor(10));
}

TEST_F(BufferPoolTest, CorruptPageIsDetectedAtPin) {
  WritePages(2);
  BufferPool pool(file_.get(), 4);

  // Flip one byte in the middle of page 1's stored bytes.
  auto page = std::make_unique<Page>();
  ASSERT_TRUE(file_->ReadAt(1 * kPageSize, page->data(), kPageSize).ok());
  page->data()[kPageSize / 2] ^= std::byte{0x40};
  ASSERT_TRUE(file_->WriteAt(1 * kPageSize, page->data(), kPageSize).ok());

  auto ref = pool.Pin(1);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(ref.status().message().find("checksum mismatch"),
            std::string::npos)
      << ref.status().ToString();

  // The intact page is unaffected.
  auto ok = pool.Pin(0);
  EXPECT_TRUE(ok.ok());
}

TEST_F(BufferPoolTest, LazyFrameAllocationForLargePools) {
  WritePages(2);
  // A pool budget far larger than the working set must not preallocate
  // frames: memory stays proportional to pages touched.
  BufferPool pool(file_.get(), 1u << 20);
  { auto r = pool.Pin(0); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Pin(1); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// N threads churn pin/read/unpin (and some writes) against a pool smaller
// than the working set, so hits, misses, evictions, and dirty write-backs
// all interleave. Thread count <= frame count, so kResourceExhausted can
// never occur and every Pin must succeed. Run under TSan in CI.
TEST_F(BufferPoolTest, ConcurrentChurnStress) {
  constexpr uint64_t kPages = 24;      // working set
  constexpr size_t kFrames = 6;        // pool is 4x smaller
  constexpr size_t kThreads = 4;       // <= kFrames: exhaustion impossible
  constexpr int kItersPerThread = 800;

  WritePages(kPages);
  BufferPool pool(file_.get(), kFrames);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failures, t]() {
      uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kItersPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t id = (state >> 33) % kPages;
        auto ref = pool.Pin(id);
        if (!ref.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (ref.value().page().page_id() != id ||
            ReadPayload(ref.value().page()) != PayloadFor(id)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_GE(stats.evictions, 1u);  // pool << working set forces churn
}

}  // namespace
}  // namespace maybms::storage
