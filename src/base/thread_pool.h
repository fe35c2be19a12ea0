#ifndef MAYBMS_BASE_THREAD_POOL_H_
#define MAYBMS_BASE_THREAD_POOL_H_

// Shared chunked thread pool for the per-world hot loops.
//
// Every world of a world-set is an independent database (worlds/world_set.h),
// prepared plans are schema-only (engine/prepared.h), and tables are
// immutable once shared (storage/catalog.h) — so per-world work parallelizes
// without locks around engine state. What does NOT parallelize naively is
// the *observable behavior*: result bytes and error choice must not depend
// on the thread count. ParallelFor is therefore built around three rules:
//
//  1. Deterministic chunking. The iteration space [0, n) is split into
//     fixed chunks whose geometry depends only on n (ChunkSize/NumChunks),
//     never on the thread count. Callers that accumulate floating-point
//     state keep one accumulator per CHUNK and merge them in chunk-index
//     order afterwards, so every addition happens in the same order at
//     every thread count — results are byte-identical to threads:1.
//     Workers claim chunks from a shared atomic cursor (work stealing in
//     the chunked sense: a fast worker drains chunks a slow one never
//     reaches).
//
//  2. First error by INDEX, not by completion order. When bodies fail in
//     several indices concurrently, the error reported is the one at the
//     smallest index — exactly the error the sequential loop would have
//     hit first. Indices above the smallest known failing index are
//     skipped (the sequential loop would never have reached them), indices
//     below it still run so a smaller failing index can surface.
//
//  3. Slot-addressed scratch state. The body receives a `slot` in
//     [0, Slots(threads)): a dense identifier for the executing thread,
//     stable for the duration of one ParallelFor. Callers use it to index
//     per-thread caches (e.g. lazily prepared plans, which mutate their
//     subquery-plan caches during execution and must not be shared across
//     threads). Slot state must not affect results — only per-chunk state
//     may feed the answer.
//
// Nested ParallelFor calls from inside a worker run inline on the calling
// worker (slot 0 of the nested call) — no deadlock, no thread explosion.
// Concurrent top-level calls from different threads serialize on the pool.
//
// Debug invariant enforcement: while a thread executes loop bodies (on
// every path, including threads:1/inline) it carries a nonzero region
// token (base/parallel_region.h). Debug builds use it to trap writes to
// shared Databases from inside a parallel region — see the concurrency
// invariant in storage/catalog.h and tests/invariant_traps_test.cc.
//
// Thread count resolution: a per-call `threads` argument of 0 means
// DefaultThreads(), which honours the MAYBMS_THREADS environment variable
// (if it is all digits, positive and at most kMaxThreads) and otherwise
// falls back to std::thread::hardware_concurrency(). Session code exposes the same knob
// as SessionOptions::threads. threads:1 runs inline on the caller — but
// through the same chunked algorithm, so it is the determinism reference.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "base/result.h"

namespace maybms::base {

class QueryContext;

class ThreadPool {
 public:
  /// body(index, slot, chunk): run iteration `index`, executing as thread
  /// `slot`, within chunk `chunk`. Returns OK or the iteration's error.
  using Body = std::function<Status(size_t index, size_t slot, size_t chunk)>;

  /// A pool with `extra_workers` background threads; callers of
  /// ParallelFor participate too, so max_parallelism() is one more.
  /// Worker threads are spawned lazily, on the first call that actually
  /// goes parallel — a process whose loops all run inline (threads:1, a
  /// 1-core machine) stays single-threaded, keeping glibc malloc on its
  /// lock-free fast path (see EnsureWorkers in the .cc).
  explicit ThreadPool(size_t extra_workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The largest MAYBMS_THREADS value DefaultThreads accepts.
  static constexpr size_t kMaxThreads = 1024;

  /// MAYBMS_THREADS if it is a positive all-digit value of at most
  /// kMaxThreads (base/string_util.h ParseDecimal), else
  /// std::thread::hardware_concurrency() (at least 1). "-1", "+2", " 2"
  /// and overflow all fall back. Re-read on every call so tests can vary
  /// the environment.
  static size_t DefaultThreads();

  /// The process-wide pool used by the engines. Sized once at first use:
  /// max(8, DefaultThreads()) slots, so tests exercise real concurrency
  /// even on small machines.
  static ThreadPool& Shared();

  /// Deterministic chunk geometry: a function of n ONLY (never of the
  /// thread count), so per-chunk accumulators merge identically at every
  /// thread count.
  static size_t ChunkSize(size_t n);
  static size_t NumChunks(size_t n);

  /// Workers plus the calling thread. Reports the CONFIGURED capacity
  /// (workers spawn lazily), so Slots() is stable from the first call.
  size_t max_parallelism() const { return target_workers_ + 1; }

  /// Number of slots a ParallelFor(n, threads, ...) call may use — size
  /// per-slot scratch arrays with this. 0 means DefaultThreads().
  size_t Slots(size_t threads) const;

  /// Runs body for every index in [0, n) using up to Slots(threads)
  /// threads. Returns OK iff every executed body returned OK; otherwise
  /// the error of the SMALLEST failing index (see rule 2 above).
  [[nodiscard]] Status ParallelFor(size_t n, size_t threads, const Body& body);

 private:
  struct Task {
    size_t n = 0;
    size_t chunk_size = 0;
    size_t num_chunks = 0;
    size_t max_slots = 0;
    const Body* body = nullptr;
    // The submitting thread's governance context (base/query_context.h),
    // installed on every worker for the task's duration and polled at
    // chunk boundaries; nullptr when the statement is ungoverned.
    QueryContext* context = nullptr;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> next_slot{1};  // caller owns slot 0
    // Indices >= stop_before are skipped: a body at a smaller-or-equal
    // index already failed, so the sequential loop would never have
    // reached them.
    std::atomic<size_t> stop_before;
    std::mutex error_mu;
    size_t error_index;
    Status error;
  };

  void WorkerLoop();
  /// Spawns the configured workers if not yet running (idempotent).
  void EnsureWorkers();
  /// Claims chunks off `task` until exhausted; records errors per rule 2.
  static void RunChunks(Task* task, size_t slot);
  /// The threads:1 path — same chunk walk, caller-only, early exit on
  /// first error (which IS the smallest-index error when run in order).
  static Status RunInline(size_t n, const Body& body);

  const size_t target_workers_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a task arrived / shutdown
  std::condition_variable done_cv_;  // caller: all participants finished
  Task* task_ = nullptr;
  size_t active_ = 0;  // workers currently executing task chunks
  bool shutdown_ = false;

  // Serializes concurrent top-level ParallelFor calls (nested calls run
  // inline and never take this lock).
  std::mutex submit_mu_;
};

}  // namespace maybms::base

#endif  // MAYBMS_BASE_THREAD_POOL_H_
