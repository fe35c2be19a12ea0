#include "base/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>

#include "base/parallel_region.h"
#include "base/query_context.h"
#include "base/string_util.h"

namespace maybms::base {

namespace {

// True while this thread is executing inside a ParallelFor (as caller or
// worker): nested calls run inline instead of re-entering the pool.
thread_local bool tls_inside_parallel_for = false;

// Region token for the debug invariant traps (base/parallel_region.h):
// nonzero while this thread runs ParallelFor bodies — including the
// sequential inline path, so a trap that would fire at threads:8 also
// fires at threads:1. Unlike tls_inside_parallel_for (which only guards
// pool re-entry), the token is maintained on EVERY execution path.
thread_local uint64_t tls_region_token = 0;
std::atomic<uint64_t> g_next_region_token{1};

// Assigns this thread a fresh token for a top-level region; nested
// regions (token already nonzero) keep the outer token.
class RegionTokenScope {
 public:
  RegionTokenScope() : saved_(tls_region_token) {
    if (tls_region_token == 0) {
      tls_region_token =
          g_next_region_token.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ~RegionTokenScope() { tls_region_token = saved_; }
  RegionTokenScope(const RegionTokenScope&) = delete;
  RegionTokenScope& operator=(const RegionTokenScope&) = delete;

 private:
  uint64_t saved_;
};

}  // namespace

uint64_t CurrentRegionToken() { return tls_region_token; }

bool InParallelRegion() { return tls_region_token != 0; }

ThreadPool::ThreadPool(size_t extra_workers) : target_workers_(extra_workers) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::EnsureWorkers() {
  // Workers are spawned on the FIRST loop that actually goes parallel,
  // not at construction: the mere existence of a second thread switches
  // glibc malloc off its single-threaded fast path for the rest of the
  // process — a measured ~15-20% on allocation-heavy sub-25us statements.
  // A threads:1 session (or a 1-core machine) never spawns and never
  // pays; spawning is idempotent and serialized on mu_.
  std::lock_guard<std::mutex> lk(mu_);
  if (workers_.size() >= target_workers_) return;
  workers_.reserve(target_workers_);
  while (workers_.size() < target_workers_) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

size_t ThreadPool::DefaultThreads() {
  // MAYBMS_THREADS is re-read on every call (tests rely on setenv taking
  // effect mid-process), but hardware_concurrency() is a syscall on
  // glibc (~2.5us) and never changes — cache it, or its cost dwarfs
  // small statements: Slots() + ParallelFor() pay it once each.
  if (const char* env = std::getenv("MAYBMS_THREADS")) {
    const std::optional<uint64_t> v = ParseDecimal(env, kMaxThreads);
    if (v.has_value() && *v > 0) return static_cast<size_t>(*v);
  }
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& ThreadPool::Shared() {
  // Leaked deliberately: worker threads must not be joined during static
  // destruction. Sized at least 8 so correctness tests exercise real
  // concurrency even on small machines (per-call `threads` still limits
  // how many slots a loop uses). Worker threads start lazily — see
  // EnsureWorkers.
  static ThreadPool* pool =
      new ThreadPool(std::max<size_t>(8, DefaultThreads()) - 1);
  return *pool;
}

size_t ThreadPool::ChunkSize(size_t n) {
  // A function of n only — never of the thread count (see header rule 1).
  // ~64 chunks for mid-size loops; chunks cap at 1024 indices so huge
  // world counts still rebalance across slow/fast workers, and never go
  // below 64: per-chunk accumulators (combiners, snapshots) pay a
  // construct+merge cost per chunk (~0.7us for a streaming combiner),
  // which has to stay small against the chunk's own work — singleton
  // chunks made it per-index (2-3x on few-world statements), and chunks
  // of 8 still lost ~30% on cheap per-world queries over a few hundred
  // worlds.
  if (n <= 1) return 1;
  return std::min<size_t>(n, std::clamp<size_t>(n / 64, 64, 1024));
}

size_t ThreadPool::NumChunks(size_t n) {
  size_t cs = ChunkSize(n);
  return (n + cs - 1) / cs;
}

size_t ThreadPool::Slots(size_t threads) const {
  size_t want = threads > 0 ? threads : DefaultThreads();
  return std::min(want, max_parallelism());
}

Status ThreadPool::RunInline(size_t n, const Body& body) {
  // Same chunk walk as the parallel path; run in order, the first error
  // encountered is the smallest-index error. Carries a region token like
  // the parallel path so the Database/Table debug traps are independent
  // of the thread count and loop size.
  RegionTokenScope region;
  const size_t chunk_size = ChunkSize(n);
  const size_t num_chunks = NumChunks(n);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    // Same chunk-boundary governance poll as the parallel path, so the
    // number of polls a statement makes is a function of n only.
    MAYBMS_RETURN_NOT_OK(GovernPoll());
    const size_t begin = chunk * chunk_size;
    const size_t end = std::min(begin + chunk_size, n);
    for (size_t i = begin; i < end; ++i) {
      MAYBMS_RETURN_NOT_OK(body(i, 0, chunk));
    }
  }
  return Status::OK();
}

void ThreadPool::RunChunks(Task* task, size_t slot) {
  const Body& body = *task->body;
  while (true) {
    const size_t chunk = task->next_chunk.fetch_add(1,
                                                    std::memory_order_relaxed);
    if (chunk >= task->num_chunks) break;
    const size_t begin = chunk * task->chunk_size;
    const size_t end = std::min(begin + task->chunk_size, task->n);
    if (task->context != nullptr) {
      // Chunk-boundary governance poll. A fired limit is recorded at the
      // chunk's first index under the usual smallest-index rule; the
      // verdict Status is set-once in the context (and index-free), so
      // every thread that observes it reports the identical error.
      Status governed = task->context->Check();
      if (!governed.ok()) {
        std::lock_guard<std::mutex> g(task->error_mu);
        if (begin < task->error_index) {
          task->error_index = begin;
          task->error = std::move(governed);
          task->stop_before.store(begin, std::memory_order_release);
        }
        continue;  // drain remaining chunks without running bodies
      }
    }
    for (size_t i = begin; i < end; ++i) {
      // Rule 2: an index at or above a known failing index is dead —
      // the sequential loop would have stopped before reaching it.
      if (i >= task->stop_before.load(std::memory_order_acquire)) break;
      Status st;
      try {
        st = body(i, slot, chunk);
      } catch (const std::exception& e) {
        st = Status::RuntimeError(std::string("parallel worker: ") + e.what());
      } catch (...) {
        st = Status::RuntimeError("parallel worker: unknown exception");
      }
      if (!st.ok()) {
        std::lock_guard<std::mutex> g(task->error_mu);
        if (i < task->error_index) {
          task->error_index = i;
          task->error = std::move(st);
          task->stop_before.store(i, std::memory_order_release);
        }
      }
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    work_cv_.wait(lk, [&] { return shutdown_ || task_ != nullptr; });
    if (shutdown_) return;
    Task* t = task_;
    // Claiming the slot and bumping active_ happen under mu_, so the
    // caller cannot retire the task in between.
    const size_t slot = t->next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot < t->max_slots) {
      ++active_;
      lk.unlock();
      tls_inside_parallel_for = true;
      {
        RegionTokenScope region;
        // Workers carry the submitter's governance context for the
        // task's duration, so nested loops and engine code polling
        // GovernPoll() see it on every thread.
        QueryContextScope governance(t->context);
        RunChunks(t, slot);
      }
      tls_inside_parallel_for = false;
      lk.lock();
      if (--active_ == 0) done_cv_.notify_all();
    }
    // Never rejoin the same task; sleep until it is retired (or a new one
    // replaces it).
    work_cv_.wait(lk, [&] { return shutdown_ || task_ != t; });
    if (shutdown_) return;
  }
}

Status ThreadPool::ParallelFor(size_t n, size_t threads, const Body& body) {
  if (n == 0) return Status::OK();
  const size_t slots = Slots(threads);
  if (slots <= 1 || NumChunks(n) <= 1 || tls_inside_parallel_for) {
    return RunInline(n, body);
  }
  EnsureWorkers();

  std::lock_guard<std::mutex> submit(submit_mu_);
  Task task;
  task.n = n;
  task.chunk_size = ChunkSize(n);
  task.num_chunks = NumChunks(n);
  task.max_slots = slots;
  task.body = &body;
  task.context = CurrentQueryContext();
  task.stop_before.store(n, std::memory_order_relaxed);
  task.error_index = n;

  {
    std::lock_guard<std::mutex> lk(mu_);
    task_ = &task;
  }
  work_cv_.notify_all();

  tls_inside_parallel_for = true;
  {
    RegionTokenScope region;
    RunChunks(&task, /*slot=*/0);
  }
  tls_inside_parallel_for = false;

  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return active_ == 0; });
    task_ = nullptr;
  }
  work_cv_.notify_all();

  if (task.error_index < n) return std::move(task.error);
  return Status::OK();
}

}  // namespace maybms::base
