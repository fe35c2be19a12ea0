// base/thread_pool.h contract tests: every index runs exactly once, chunk
// geometry is a function of the trip count alone, the reported error is
// the smallest-index error regardless of completion order, nested loops
// run inline, and concurrent top-level loops serialize safely.

#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace maybms::base {
namespace {

TEST(ThreadPoolTest, ZeroTripCountIsANoOp) {
  bool called = false;
  Status st = ThreadPool::Shared().ParallelFor(
      0, 4, [&](size_t, size_t, size_t) -> Status {
        called = true;
        return Status::OK();
      });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (size_t n : {1u, 2u, 63u, 64u, 65u, 1000u, 4096u}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      std::vector<std::atomic<int>> counts(n);
      for (auto& c : counts) c.store(0);
      Status st = ThreadPool::Shared().ParallelFor(
          n, threads, [&](size_t i, size_t, size_t) -> Status {
            counts[i].fetch_add(1);
            return Status::OK();
          });
      ASSERT_TRUE(st.ok()) << st.ToString();
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1)
            << "index " << i << " of " << n << " at threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, ChunkGeometryDependsOnTripCountOnly) {
  // The chunk passed to the body must be i / ChunkSize(n) at EVERY thread
  // count — per-chunk accumulators rely on identical geometry.
  for (size_t n : {1u, 5u, 64u, 100u, 1000u}) {
    const size_t chunk_size = ThreadPool::ChunkSize(n);
    ASSERT_EQ(ThreadPool::NumChunks(n), (n + chunk_size - 1) / chunk_size);
    for (size_t threads : {1u, 3u, 8u}) {
      std::atomic<bool> ok{true};
      Status st = ThreadPool::Shared().ParallelFor(
          n, threads, [&](size_t i, size_t, size_t chunk) -> Status {
            if (chunk != i / chunk_size) ok.store(false);
            return Status::OK();
          });
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(ok.load()) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, SlotsAreWithinBoundsAndDistinctPerConcurrentWorker) {
  const size_t n = 2048;
  const size_t threads = 8;
  std::vector<std::atomic<int>> slot_hits(threads);
  for (auto& s : slot_hits) s.store(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> slot0_only_caller{true};
  Status st = ThreadPool::Shared().ParallelFor(
      n, threads, [&](size_t, size_t slot, size_t) -> Status {
        if (slot >= threads) return Status::RuntimeError("slot out of range");
        if (slot == 0 && std::this_thread::get_id() != caller) {
          slot0_only_caller.store(false);
        }
        slot_hits[slot].fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Slot 0 is RESERVED for the caller — no worker may ever run under it.
  // Whether the caller actually receives a chunk is scheduling-dependent
  // (workers can drain the queue before the caller's first claim), so the
  // contract is reservation, not participation.
  EXPECT_TRUE(slot0_only_caller.load());
  int total = 0;
  for (auto& s : slot_hits) total += s.load();
  EXPECT_EQ(total, static_cast<int>(n));
}

TEST(ThreadPoolTest, SmallestIndexErrorWins) {
  const size_t n = 1000;
  for (const std::set<size_t>& failing :
       {std::set<size_t>{0}, std::set<size_t>{371}, std::set<size_t>{n - 1},
        std::set<size_t>{0, 371, n - 1}, std::set<size_t>{371, n - 1}}) {
    const size_t expected = *failing.begin();
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      Status st = ThreadPool::Shared().ParallelFor(
          n, threads, [&](size_t i, size_t, size_t) -> Status {
            if (failing.count(i)) {
              return Status::RuntimeError("boom at " + std::to_string(i));
            }
            return Status::OK();
          });
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.message(), "boom at " + std::to_string(expected))
          << "threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, IndicesBelowTheFailingIndexStillRun) {
  const size_t n = 1000;
  const size_t fail_at = 600;
  std::vector<std::atomic<int>> counts(n);
  for (auto& c : counts) c.store(0);
  Status st = ThreadPool::Shared().ParallelFor(
      n, 8, [&](size_t i, size_t, size_t) -> Status {
        counts[i].fetch_add(1);
        if (i == fail_at) return Status::RuntimeError("boom");
        return Status::OK();
      });
  ASSERT_FALSE(st.ok());
  // Everything the sequential loop would have executed before the error
  // must have executed (exactly once) here too.
  for (size_t i = 0; i < fail_at; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ExceptionsBecomeStatuses) {
  Status st = ThreadPool::Shared().ParallelFor(
      256, 4, [&](size_t i, size_t, size_t) -> Status {
        if (i == 17) throw std::runtime_error("worker exploded");
        return Status::OK();
      });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("worker exploded"), std::string::npos)
      << st.ToString();
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  std::atomic<int> inner_total{0};
  std::atomic<bool> inner_slot_zero{true};
  Status st = ThreadPool::Shared().ParallelFor(
      64, 4, [&](size_t, size_t, size_t) -> Status {
        return ThreadPool::Shared().ParallelFor(
            8, 4, [&](size_t, size_t slot, size_t) -> Status {
              if (slot != 0) inner_slot_zero.store(false);
              inner_total.fetch_add(1);
              return Status::OK();
            });
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(inner_total.load(), 64 * 8);
  EXPECT_TRUE(inner_slot_zero.load()) << "nested loop was not inline";
}

TEST(ThreadPoolTest, ConcurrentTopLevelLoopsComplete) {
  // Two independent threads submitting to the shared pool at once must
  // serialize without deadlock or cross-talk.
  std::atomic<int> total_a{0};
  std::atomic<int> total_b{0};
  std::thread a([&] {
    for (int round = 0; round < 5; ++round) {
      Status st = ThreadPool::Shared().ParallelFor(
          500, 4, [&](size_t, size_t, size_t) -> Status {
            total_a.fetch_add(1);
            return Status::OK();
          });
      ASSERT_TRUE(st.ok());
    }
  });
  std::thread b([&] {
    for (int round = 0; round < 5; ++round) {
      Status st = ThreadPool::Shared().ParallelFor(
          500, 4, [&](size_t, size_t, size_t) -> Status {
            total_b.fetch_add(1);
            return Status::OK();
          });
      ASSERT_TRUE(st.ok());
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(total_a.load(), 2500);
  EXPECT_EQ(total_b.load(), 2500);
}

TEST(ThreadPoolTest, DefaultThreadsHonorsEnvironment) {
  // MAYBMS_THREADS is re-read on every call.
  ASSERT_EQ(setenv("MAYBMS_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3u);
  ASSERT_EQ(setenv("MAYBMS_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);  // falls back to hardware
  ASSERT_EQ(unsetenv("MAYBMS_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

// Only DefaultThreads() is called here: a pool or loop sized from a
// wrapped value would ask for ~2^64 threads.
TEST(ThreadPoolTest, DefaultThreadsAcceptsOnlyPositiveDigits) {
  ASSERT_EQ(unsetenv("MAYBMS_THREADS"), 0);
  const size_t hardware = ThreadPool::DefaultThreads();
  for (const char* bad :
       {"-1", "18446744073709551616", "18446744073709551615", "0", "+2",
        " 2", "2 ", "0x10", "", "1025"}) {
    ASSERT_EQ(setenv("MAYBMS_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::DefaultThreads(), hardware)
        << "MAYBMS_THREADS=\"" << bad << "\" must fall back";
  }
  ASSERT_EQ(setenv("MAYBMS_THREADS", "1024", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), ThreadPool::kMaxThreads);
  ASSERT_EQ(unsetenv("MAYBMS_THREADS"), 0);
}

}  // namespace
}  // namespace maybms::base
