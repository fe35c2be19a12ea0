// Storage microbenchmarks (ISSUE 8): scan / materialize / repair-fanout
// throughput on in-memory tables vs durable paged storage across
// buffer-pool budgets, cold-restart-to-first-answer latency, and — via a
// whole-binary allocation tracker — the resident-byte evidence for the
// pool's central claim: scanning an arbitrarily large relation touches
// O(pool) memory, not O(relation).
//
// Case families:
//   storage/scan/{memory,paged/pool_pages:{64,1024,unbounded}}
//   storage/materialize/{memory,paged/pool_pages:{64,1024,unbounded}}
//   storage/repair_fanout/{memory,paged/pool_pages:{64,1024,unbounded}}
//   storage/cold_restart/paged/pool_pages:{64,1024,unbounded}
//   storage/one_row_write/{memory,paged/pool_pages:64}
//   storage/one_row_write/{update_middle,delete_middle}/paged
// Paged cases report peak_mb — the allocation high-water mark of one cold
// scan with a fresh pool — which grows with pool_pages, not table size.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/workloads.h"
#include "isql/session.h"
#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/paged_table.h"
#include "storage/table.h"
#include "types/value.h"

// ---------------------------------------------------------------------------
// Allocation tracking (whole bench binary): every operator new carries a
// small size header so live and peak byte counts are exact. Same idiom as
// tests/world_storage_test.cc.
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
  *reinterpret_cast<size_t*>(base) = n;
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

namespace maybms::bench {
namespace {

using isql::EngineMode;
using isql::Session;
using isql::SessionOptions;
using isql::StorageMode;
using storage::BufferPool;
using storage::File;
using storage::PagedTable;
using storage::PageRun;

// ~740 pages at ~30 bytes/row: a 64-page pool must evict continuously,
// 1024 holds the whole run, "unbounded" proves the budget is never the
// bottleneck when memory is plentiful.
constexpr int kRows = 200000;
constexpr size_t kUnbounded = size_t{1} << 30;

Table MakeBigTable() {
  Schema schema({Column("K", DataType::kInteger),
                 Column("V", DataType::kInteger),
                 Column("T", DataType::kText)});
  Table table(schema);
  for (int i = 0; i < kRows; ++i) {
    table.AppendUnchecked(Tuple({Value::Integer(i % 97),
                                 Value::Integer(i),
                                 Value::Text("r" + std::to_string(i % 1000))}));
  }
  return table;
}

/// A table written once as a page run in a temp file; each benchmark
/// iteration reads it back through its own fresh BufferPool.
class PagedFixture {
 public:
  PagedFixture() {
    dir_ = std::filesystem::temp_directory_path() /
           ("maybms-bench-storage-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    auto file = File::Open((dir_ / "bench.db").string(), /*create=*/true);
    if (!file.ok()) std::abort();
    file_ = std::move(file).value();
    Table table = MakeBigTable();
    BufferPool setup_pool(file_.get(), 256);
    uint64_t next_page = 0;
    auto written = PagedTable::Write(table.schema(), table.rows(), &setup_pool,
                                     &next_page);
    if (!written.ok()) std::abort();
    run_ = written.value().run();
    if (!setup_pool.FlushAll().ok()) std::abort();
  }

  ~PagedFixture() {
    file_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  File* file() { return file_.get(); }
  const PageRun& run() const { return run_; }

  static PagedFixture& Instance() {
    static PagedFixture fixture;
    return fixture;
  }

 private:
  std::filesystem::path dir_;
  std::unique_ptr<File> file_;
  PageRun run_;
};

int64_t SumPaged(BufferPool* pool, const PageRun& run) {
  PagedTable table(pool, run);
  int64_t sum = 0;
  Status status = table.Scan([&sum](Tuple t) {
    sum += t.value(1).AsInteger();
    return Status::OK();
  });
  if (!status.ok()) std::abort();
  return sum;
}

// --- storage/scan ----------------------------------------------------------

void BM_ScanMemory(benchmark::State& state) {
  Table table = MakeBigTable();
  for (auto _ : state) {
    int64_t sum = 0;
    for (const Tuple& t : table.rows()) sum += t.value(1).AsInteger();
    benchmark::DoNotOptimize(sum);
  }
  state.counters["rows"] = kRows;
}

void BM_ScanPaged(benchmark::State& state, size_t pool_pages) {
  PagedFixture& fx = PagedFixture::Instance();
  // O(pool) evidence: the cold-scan high-water mark with a fresh pool.
  const size_t peak = PeakDuring([&] {
    BufferPool pool(fx.file(), pool_pages);
    benchmark::DoNotOptimize(SumPaged(&pool, fx.run()));
  });
  BufferPool pool(fx.file(), pool_pages);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SumPaged(&pool, fx.run()));
  }
  state.counters["rows"] = kRows;
  state.counters["peak_mb"] = static_cast<double>(peak) / (1024.0 * 1024.0);
  state.counters["evictions"] = static_cast<double>(pool.stats().evictions);
}

// --- storage/materialize ---------------------------------------------------

void BM_MaterializeMemory(benchmark::State& state) {
  Table table = MakeBigTable();
  for (auto _ : state) {
    Table copy = table;
    benchmark::DoNotOptimize(copy.num_rows());
  }
  state.counters["rows"] = kRows;
}

void BM_MaterializePaged(benchmark::State& state, size_t pool_pages) {
  PagedFixture& fx = PagedFixture::Instance();
  BufferPool pool(fx.file(), pool_pages);
  for (auto _ : state) {
    PagedTable table(&pool, fx.run());
    auto materialized = table.Materialize();
    if (!materialized.ok()) std::abort();
    benchmark::DoNotOptimize(materialized.value()->num_rows());
  }
  state.counters["rows"] = kRows;
}

// --- storage/repair_fanout -------------------------------------------------
// End-to-end session path: a key-repair fanning out to 256 worlds, where
// paged mode also pays the per-statement commit + reload. Sessions are
// rebuilt per iteration (the repair target must not already exist).

SessionOptions StorageOptions(bool paged, size_t pool_pages) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  options.storage = paged ? StorageMode::kPaged : StorageMode::kMemory;
  options.pool_pages = pool_pages;
  options.max_display_worlds = 1 << 20;
  return options;
}

void BM_RepairFanout(benchmark::State& state, bool paged, size_t pool_pages) {
  for (auto _ : state) {
    state.PauseTiming();
    auto session = std::make_unique<Session>(StorageOptions(paged, pool_pages));
    MustExecute(*session, KeyViolationScript(/*n_keys=*/8, /*group_size=*/2));
    state.ResumeTiming();
    MustQuery(*session, "create table I as select * from R repair by key K;");
    state.PauseTiming();
    session.reset();
    state.ResumeTiming();
  }
  state.counters["worlds"] = 256;
}

// --- storage/cold_restart --------------------------------------------------
// Restart-to-first-answer: open a committed store from disk, recover the
// world-set, and answer one aggregate. Measures Open + Load + the first
// page-fault storm at each pool budget.

void BM_ColdRestart(benchmark::State& state, size_t pool_pages) {
  static const std::string dir = [] {
    std::string d = (std::filesystem::temp_directory_path() /
                     ("maybms-bench-restart-" + std::to_string(::getpid())))
                        .string();
    std::filesystem::create_directories(d);
    SessionOptions options = StorageOptions(/*paged=*/true, 1024);
    options.storage_dir = d;
    Session seed(options);
    MustExecute(seed, "create table Big (K integer, V integer, T text);");
    for (int batch = 0; batch < 20; ++batch) {
      std::string values;
      for (int i = 0; i < 1000; ++i) {
        const int row = batch * 1000 + i;
        values += (i ? ", (" : "(") + std::to_string(row % 97) + ", " +
                  std::to_string(row) + ", 'r" + std::to_string(row % 1000) +
                  "')";
      }
      MustExecute(seed, "insert into Big values " + values + ";");
    }
    return d;
  }();

  SessionOptions options = StorageOptions(/*paged=*/true, pool_pages);
  options.storage_dir = dir;
  for (auto _ : state) {
    Session session(options);
    MustQuery(session, "select count(*) from Big;");
  }
}

// --- storage/one_row_write ------------------------------------------------
// The cost of a one-row write next to uncertain data: a 20k-row
// primary-key table C beside a relation repaired from 40 keys x 3 rows.
// The tail shape alternates inserting and deleting one key after the last
// row, so C keeps its size; update_middle updates a row in the middle of
// C, and delete_middle deletes a different middle row each iteration.
// pages_flushed is the pages each statement's commit wrote (0 in memory
// mode): the pages of C whose rows changed plus the manifest, and no
// component pages. The store is never compacted, so a paged run grows it
// by those few pages per iteration; the session removes it at the end of
// the run.

constexpr int kWriteRows = 20000;

enum class WriteShape { kTail, kUpdateMiddle, kDeleteMiddle };

std::string OneRowStatement(WriteShape shape, int64_t i) {
  switch (shape) {
    case WriteShape::kTail:
      return i % 2 == 0 ? "insert into C values (20000, 1, 1);"
                        : "delete from C where K = 20000;";
    case WriteShape::kUpdateMiddle:
      return "update C set V = V + 1 where K = " +
             std::to_string(kWriteRows / 2) + ";";
    case WriteShape::kDeleteMiddle:
      return "delete from C where K = " +
             std::to_string(kWriteRows / 4 + i % (kWriteRows / 2)) + ";";
  }
  return "";
}

void BM_OneRowWrite(benchmark::State& state, bool paged, WriteShape shape) {
  auto session = std::make_unique<Session>(StorageOptions(paged, 64));
  std::string repair = "create table P0 (K integer, V integer, W integer);\n"
                       "insert into P0 values ";
  for (int k = 0; k < 40; ++k) {
    for (int j = 0; j < 3; ++j) {
      repair += (k + j > 0 ? ", (" : "(") + std::to_string(k) + ", " +
                std::to_string(k * 10 + j) + ", " + std::to_string(1 + j) +
                ")";
    }
  }
  repair += ";\ncreate table P as select K, V from P0 repair by key K "
            "weight W;\n"
            "create table C (K integer primary key, V integer, G integer);\n";
  MustExecute(*session, repair);
  for (int batch = 0; batch < kWriteRows; batch += 5000) {
    std::string values;
    for (int k = batch; k < batch + 5000; ++k) {
      values += (k > batch ? ", (" : "(") + std::to_string(k) + ", " +
                std::to_string(k % 1000) + ", " + std::to_string(k % 50) + ")";
    }
    MustExecute(*session, "insert into C values " + values + ";");
  }
  auto flushes = [&]() -> uint64_t {
    return paged ? session->paged_store()->pool()->stats().flushes : 0;
  };
  const uint64_t flushes_before = flushes();
  int64_t statements = 0;
  for (auto _ : state) {
    isql::QueryResult result =
        MustQuery(*session, OneRowStatement(shape, statements));
    benchmark::DoNotOptimize(result);
    ++statements;
  }
  state.counters["pages_flushed"] =
      statements > 0 ? static_cast<double>(flushes() - flushes_before) /
                           static_cast<double>(statements)
                     : 0;
}

void RegisterBenchmarks() {
  struct PoolAxis {
    const char* name;
    size_t pages;
  };
  const PoolAxis kPools[] = {
      {"64", 64}, {"1024", 1024}, {"unbounded", kUnbounded}};

  benchmark::RegisterBenchmark("storage/scan/memory", BM_ScanMemory)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("storage/materialize/memory",
                               BM_MaterializeMemory)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "storage/repair_fanout/memory",
      [](benchmark::State& s) { BM_RepairFanout(s, false, 0); })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "storage/one_row_write/memory",
      [](benchmark::State& s) { BM_OneRowWrite(s, false, WriteShape::kTail); })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "storage/one_row_write/paged/pool_pages:64",
      [](benchmark::State& s) { BM_OneRowWrite(s, true, WriteShape::kTail); })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "storage/one_row_write/update_middle/paged",
      [](benchmark::State& s) {
        BM_OneRowWrite(s, true, WriteShape::kUpdateMiddle);
      })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "storage/one_row_write/delete_middle/paged",
      [](benchmark::State& s) {
        BM_OneRowWrite(s, true, WriteShape::kDeleteMiddle);
      })
      ->Unit(benchmark::kMillisecond);

  for (const PoolAxis& pool : kPools) {
    const std::string axis = "/pool_pages:" + std::string(pool.name);
    const size_t pages = pool.pages;
    benchmark::RegisterBenchmark(
        ("storage/scan/paged" + axis).c_str(),
        [pages](benchmark::State& s) { BM_ScanPaged(s, pages); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("storage/materialize/paged" + axis).c_str(),
        [pages](benchmark::State& s) { BM_MaterializePaged(s, pages); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("storage/repair_fanout/paged" + axis).c_str(),
        [pages](benchmark::State& s) { BM_RepairFanout(s, true, pages); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("storage/cold_restart/paged" + axis).c_str(),
        [pages](benchmark::State& s) { BM_ColdRestart(s, pages); })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace maybms::bench

int main(int argc, char** argv) {
  maybms::bench::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
