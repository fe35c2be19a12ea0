// Workload `paged_updates`: one in-process decomposed session on durable
// paged storage (pool_pages=64, 512 KiB), one engine thread, one
// closed-loop client, half writes.
//
// Data (from the seed): P(K,V) repaired from 40 keys x 3 weighted rows (120
// component alternatives) and a certain table C(K,V,G) of 20,000 rows.
// Writes insert, update and delete single rows of C; reads are one shape,
// a certain aggregate over C. Every write commits (with fsync) and reloads
// the whole world-set, and each commit rewrites every alternative of P, so
// one commit's pages are several times the pool.
//
// The store grows by every commit and is never compacted. To keep it
// small, the measured phase runs in rounds: each round opens a fresh store,
// loads the data (timed as one set-up sample), runs kRoundStatements
// statements and removes the store. The last round's store is kept for
// the restart cycles and the correctness gate, then removed too.

#include <sys/statvfs.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "isql/formatter.h"
#include "isql/session.h"
#include "session_run.h"
#include "storage/codec.h"
#include "storage/store.h"
#include "worlds/decomposed_world_set.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using maybms::base::SplitMix64;
using maybms::isql::EngineMode;
using maybms::isql::QueryResult;
using maybms::isql::Session;
using maybms::isql::SessionOptions;
using maybms::isql::StorageMode;

constexpr int kPKeys = 40;
constexpr int kPRows = 3;
constexpr int kCRows = 20000;
constexpr size_t kPoolPages = 64;
constexpr int kRoundStatements = 120;
constexpr int kRestartCycles = 5;
constexpr uint64_t kMinFreeBytes = 2ull << 30;

struct Data {
  std::vector<Row> p0;  // (K, V, W)
  std::vector<Row> c;   // (K, V, G)
};

Data MakeData(uint64_t seed) {
  SplitMix64 rng(seed * 6007 + 5);
  Data d;
  for (int k = 0; k < kPKeys; ++k) {
    for (int j = 0; j < kPRows; ++j) {
      d.p0.push_back({k, k * 10 + j, Uniform(&rng, 1, 9)});
    }
  }
  for (int k = 0; k < kCRows; ++k) {
    d.c.push_back({k, Uniform(&rng, 0, 999), Uniform(&rng, 0, 49)});
  }
  return d;
}

SessionOptions PagedOptions(const std::string& dir) {
  SessionOptions o;
  o.engine = EngineMode::kDecomposed;
  o.storage = StorageMode::kPaged;
  o.storage_dir = dir;
  o.pool_pages = kPoolPages;
  o.threads = 1;
  return o;
}

SessionOptions MemoryOptions() {
  SessionOptions o;
  o.engine = EngineMode::kDecomposed;
  o.storage = StorageMode::kMemory;
  o.threads = 1;
  return o;
}

void Build(Session* s, const Data& d, Report* report) {
  Exec(s, "create table P0 (K integer, V integer, W integer);", report);
  Exec(s, "insert into P0 values " + Values(d.p0, 0, d.p0.size()) + ";", report);
  Exec(s, "create table P as select K, V from P0 repair by key K weight W;",
       report);
  Exec(s, "create table C (K integer primary key, V integer, G integer);",
       report);
  constexpr size_t kBatch = 5000;
  for (size_t b = 0; b < d.c.size(); b += kBatch) {
    Exec(s,
         "insert into C values " +
             Values(d.c, b, std::min(d.c.size(), b + kBatch)) + ";",
         report);
  }
}

class Generator {
 public:
  Generator(uint64_t seed, int round)
      : rng_(seed * 15485863 + static_cast<uint64_t>(round) * 2654435761u + 7) {
    for (int k = 0; k < kCRows; ++k) live_c_.push_back(k);
  }

  Stmt Next() {
    Stmt s;
    if (class_deck_.Draw(&rng_) == 0) {
      s.cls = Cls::kRead;
      s.sql = "select certain count(*) from C where V > " +
              std::to_string(Uniform(&rng_, 0, 999)) + ";";
    } else {
      s.cls = Cls::kWrite;
      int shape = write_deck_.Draw(&rng_);
      if (shape == 0) {
        s.sql = "insert into C values (" + std::to_string(next_key_++) + ", " +
                std::to_string(Uniform(&rng_, 0, 999)) + ", " +
                std::to_string(Uniform(&rng_, 0, 49)) + ");";
        live_c_.push_back(next_key_ - 1);
      } else {
        size_t i = static_cast<size_t>(Uniform(&rng_, 0, live_c_.size() - 1));
        std::string key = std::to_string(live_c_[i]);
        if (shape == 1) {
          s.sql = "update C set V = V + " +
                  std::to_string(Uniform(&rng_, 1, 9)) + " where K = " + key + ";";
        } else {
          s.sql = "delete from C where K = " + key + ";";
          live_c_[i] = live_c_.back();
          live_c_.pop_back();
        }
      }
    }
    log_.push_back(s.sql);
    return s;
  }

  size_t c_rows() const { return live_c_.size(); }
  const std::vector<std::string>& log() const { return log_; }

 private:
  SplitMix64 rng_;
  Deck class_deck_{Repeat({{0, 1}, {1, 1}})};  // half reads, half writes
  // Writes: insert, update and delete in equal shares, so C keeps its size.
  Deck write_deck_{Repeat({{0, 1}, {1, 1}, {2, 1}})};
  std::vector<int64_t> live_c_;
  int64_t next_key_ = kCRows;
  std::vector<std::string> log_;
};

/// A store directory that is removed when this object goes away, on every
/// path out of the run.
class StoreDir {
 public:
  explicit StoreDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }
  ~StoreDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  StoreDir(const StoreDir&) = delete;
  StoreDir& operator=(const StoreDir&) = delete;

  const std::string& path() const { return path_; }
  uint64_t Bytes() const {
    uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry : fs::recursive_directory_iterator(path_, ec)) {
      if (entry.is_regular_file(ec)) total += entry.file_size(ec);
    }
    return total;
  }

 private:
  std::string path_;
};

/// Codec-encoded bytes of the live relations and component alternatives.
uint64_t EncodedBytes(const maybms::worlds::WorldSet& ws) {
  auto snap = ws.ToSnapshot();
  if (!snap.ok()) return 0;
  uint64_t total = 0;
  for (const auto& table : snap->tables) {
    total += maybms::storage::codec::EncodeSchema(table->schema()).size();
    for (const maybms::Tuple& row : table->rows()) {
      total += maybms::storage::codec::EncodeTuple(row).size();
    }
  }
  for (const auto& component : snap->components) {
    for (const auto& alt : component.alternatives) {
      for (const auto& [name, tuples] : alt.contributions) {
        for (const maybms::Tuple& t : tuples) {
          total += maybms::storage::codec::EncodeTuple(t).size();
        }
      }
    }
  }
  return total;
}

uint64_t ProbeDigest(Session* s, Report* report) {
  static const char* const kProbes[] = {
      "select certain count(*) from C;",
      "select certain sum(V) from C;",
      "select certain count(*) from C where V > 500;",
      "select certain K, V, G from C where K < 60 or K > 20000;",
      "select conf, K, V from P;",
      "select possible K, V from P where V > 200;",
  };
  uint64_t h = Fnv1a("");
  for (const char* sql : kProbes) {
    maybms::Result<QueryResult> r = s->Execute(sql);
    if (!r.ok()) {
      report->Fail(std::string("probe failed: ") + sql + ": " +
                   r.status().ToString());
      continue;
    }
    h = Fnv1a(maybms::isql::FormatQueryResult(*r), h);
  }
  return h;
}

struct Round {
  std::unique_ptr<StoreDir> dir;
  std::unique_ptr<Session> session;
  std::unique_ptr<Generator> gen;
};

struct PhaseResult {
  ClassSamples samples;
  size_t statements = 0;
  double busy_s = 0;  // statement time, round set-ups excluded
};

}  // namespace

void RunPagedUpdates(const Args& args, Report* report) {
  const std::string work = args.work_dir.empty() ? "perfbench-work" : args.work_dir;
  {
    std::error_code ec;
    fs::create_directories(work, ec);
    struct statvfs vfs = {};
    if (statvfs(work.c_str(), &vfs) != 0 ||
        static_cast<uint64_t>(vfs.f_bavail) * vfs.f_frsize < kMinFreeBytes) {
      report->Fail("less than 2 GiB free under " + work);
      return;
    }
  }
  const Data data = MakeData(args.seed);
  const std::string prefix =
      work + "/paged-" + std::to_string(::getpid()) + "-";

  Samples setup;
  LayerSamples layers;
  Tracer tracer;
  int round_no = 0;
  uint64_t id = 0;

  auto open_round = [&](bool time_setup) {
    Round r;
    r.dir = std::make_unique<StoreDir>(prefix + std::to_string(round_no));
    Clock::time_point t0 = Clock::now();
    r.session = std::make_unique<Session>(PagedOptions(r.dir->path()));
    Build(r.session.get(), data, report);
    if (time_setup) setup.Add(MsBetween(t0, Clock::now()) / 1000);
    r.gen = std::make_unique<Generator>(args.seed, round_no++);
    return r;
  };

  // Runs rounds until `seconds` of statement time have passed; returns the
  // final round (its store still open) through `last`.
  auto run_phase = [&](double seconds, bool traced, Round* last) {
    PhaseResult out;
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (report->correct()) {
      *last = Round();  // the previous round's store is removed here
      Round r = open_round(true);
      std::unique_ptr<Session> twin;
      if (traced) {
        twin = std::make_unique<Session>(MemoryOptions());
        Build(twin.get(), data, report);
      }
      Clock::time_point round_start = Clock::now();
      for (int i = 0; i < kRoundStatements && Clock::now() < deadline; ++i) {
        Stmt stmt = r.gen->Next();
        if (!traced) {
          Outcome o = RunPlain(r.session.get(), stmt.sql);
          report->CountStatement(o.ok);
          if (!o.ok) report->Fail("statement failed: " + o.error + " in: " + stmt.sql);
          out.samples.of(stmt.cls).Add(o.ms);
          ++out.statements;
          continue;
        }
        std::unique_ptr<maybms::worlds::WorldSet> pre_write;
        maybms::storage::BufferPool::Stats before;
        uint64_t bytes_before = 0;
        if (stmt.cls == Cls::kWrite) {
          pre_write = r.session->world_set().Clone();
          before = r.session->paged_store()->pool()->stats();
          bytes_before = r.dir->Bytes();
        }
        Clock::time_point t0 = Clock::now();
        TracedOutcome t = RunTraced(r.session.get(), stmt, ++id, &tracer);
        out.busy_s += MsBetween(t0, Clock::now()) / 1000;
        ++out.statements;
        report->CountStatement(t.ok);
        if (!t.ok) {
          report->Fail("statement failed: " + t.error + " in: " + stmt.sql);
          break;
        }
        AddTracedSamples(stmt, t, &layers);
        if (stmt.cls == Cls::kRead) {
          const auto& select =
              static_cast<const maybms::sql::SelectStatement&>(*t.stmt);
          uint64_t span = tracer.Open(id, stmt.cls, "worlds.evaluate", 0);
          auto eval = r.session->world_set().EvaluateSelect(
              select, r.session->options().max_display_worlds);
          layers.Add("worlds.evaluate_ms.read", tracer.Close(span));
          if (!eval.ok()) report->Fail("EvaluateSelect failed: " + stmt.sql);
          continue;
        }
        maybms::storage::BufferPool::Stats after =
            r.session->paged_store()->pool()->stats();
        layers.Add("storage.pages_flushed",
                   static_cast<double>(after.flushes - before.flushes));
        layers.Add("storage.pool_hits", static_cast<double>(after.hits - before.hits));
        layers.Add("storage.pool_misses",
                   static_cast<double>(after.misses - before.misses));
        layers.Add("storage.pool_evictions",
                   static_cast<double>(after.evictions - before.evictions));
        uint64_t touched = (after.hits - before.hits) + (after.misses - before.misses);
        if (touched > 0) {
          layers.Add("storage.pool_hit_ratio",
                     static_cast<double>(after.hits - before.hits) / touched);
        }
        layers.Add("storage.file_growth_kib",
                   static_cast<double>(r.dir->Bytes() - bytes_before) / 1024);

        uint64_t span = tracer.Open(id, stmt.cls, "memory_twin.execute", 0);
        auto mem = twin->ExecuteStatement(*t.stmt);
        layers.Add("storage.persist_ms", t.exec_ms - tracer.Close(span));
        if (!mem.ok()) report->Fail("memory twin failed: " + mem.status().ToString());

        span = tracer.Open(id, stmt.cls, "worlds.apply", 0);
        maybms::Status st = pre_write->ApplyDml(*t.stmt, r.session->catalog());
        layers.Add("worlds.apply_ms", tracer.Close(span));
        if (!st.ok()) report->Fail("ApplyDml on a clone failed: " + st.ToString());

        span = tracer.Open(id, stmt.cls, "worlds.to_snapshot", 0);
        auto snap = r.session->world_set().ToSnapshot();
        layers.Add("worlds.to_snapshot_ms", tracer.Close(span));
        if (!snap.ok()) {
          report->Fail("ToSnapshot failed: " + snap.status().ToString());
        } else {
          maybms::worlds::DecomposedWorldSet scratch(
              maybms::worlds::DecomposedWorldSet::kDefaultMaxMerge, 1);
          span = tracer.Open(id, stmt.cls, "worlds.from_snapshot", 0);
          maybms::Status loaded = scratch.FromSnapshot(*snap);
          layers.Add("worlds.from_snapshot_ms", tracer.Close(span));
          if (!loaded.ok()) report->Fail("FromSnapshot failed: " + loaded.ToString());
        }
      }
      if (!traced) out.busy_s += MsBetween(round_start, Clock::now()) / 1000;
      *last = std::move(r);
      if (Clock::now() >= deadline) break;
    }
    return out;
  };

  // Warm-up round, untimed: allocators, page cache and the first store.
  {
    Round warm = open_round(false);
    for (int i = 0; i < kRoundStatements / 4; ++i) {
      Outcome o = RunPlain(warm.session.get(), warm.gen->Next().sql);
      report->CountStatement(o.ok);
      if (!o.ok) report->Fail("statement failed: " + o.error);
    }
  }

  Round last;
  PhaseResult untraced =
      run_phase(args.trace ? args.seconds / 2 : args.seconds, false, &last);
  const double throughput =
      untraced.busy_s > 0 ? static_cast<double>(untraced.statements) / untraced.busy_s : 0;
  PhaseResult traced;
  if (args.trace && report->correct()) traced = run_phase(args.seconds / 2, true, &last);
  if (!report->correct() || !last.session) return;

  // Correctness gate part 1 and end-of-run state: the final store against
  // a memory-mode twin that replays the same statements.
  const double store_amp =
      static_cast<double>(last.dir->Bytes()) /
      static_cast<double>(std::max<uint64_t>(1, EncodedBytes(last.session->world_set())));
  const double generation =
      static_cast<double>(last.session->paged_store()->generation());
  const auto& ws = last.session->world_set();
  const double components = static_cast<double>(
      static_cast<const maybms::worlds::DecomposedWorldSet&>(ws).num_components());
  const double log10_worlds = ws.Log10NumWorlds();
  Session twin(MemoryOptions());
  Build(&twin, data, report);
  for (const std::string& sql : last.gen->log()) Exec(&twin, sql, report);
  const uint64_t want = ProbeDigest(&twin, report);
  if (ProbeDigest(last.session.get(), report) != want) {
    report->Fail("paged answers differ from the memory-mode twin");
  }

  // Restart cycles: reopen the store cold and answer a verified query.
  Samples restart;
  const std::string expect_rows =
      "select certain count(*) from C;";
  for (int cycle = 0; cycle < kRestartCycles; ++cycle) {
    last.session.reset();
    Clock::time_point t0 = Clock::now();
    last.session = std::make_unique<Session>(PagedOptions(last.dir->path()));
    maybms::Result<QueryResult> r = last.session->Execute(expect_rows);
    restart.Add(MsBetween(t0, Clock::now()));
    if (!r.ok() || !r->has_table() || r->table().num_rows() != 1 ||
        r->table().row(0).value(0).AsInteger() !=
            static_cast<int64_t>(last.gen->c_rows())) {
      report->Fail("first query after a restart gave a wrong row count of C");
    }
  }
  if (ProbeDigest(last.session.get(), report) != want) {
    report->Fail("answers after the restart differ from the memory-mode twin");
  }
  report->Note("rounds: " + std::to_string(round_no) + ", final store: " +
               std::to_string(last.dir->Bytes() >> 20) + " MiB");

  if (!args.trace) {
    report->CheckSamples("read", untraced.samples.read);
    report->CheckSamples("write", untraced.samples.write);
    EmitCommonEndToEnd(setup.Median(), throughput, untraced.samples.read,
                       untraced.samples.write, report);
    report->Extra("restart_ms", restart.Median(), "ms");
    report->Extra("store_amp", store_amp, "ratio");
    return;
  }

  std::map<std::string, double> values;
  values["isql.self_ms.read"] = layers.Median("isql.execute_ms.read") -
                                layers.Median("worlds.evaluate_ms.read");
  values["worlds.components"] = components;
  values["worlds.log10_worlds"] = log10_worlds;
  values["storage.generation"] = generation;
  values["trace.coverage"] = tracer.Coverage("statement");
  const double traced_throughput =
      traced.busy_s > 0 ? static_cast<double>(traced.statements) / traced.busy_s : 0;
  values["trace.overhead"] =
      traced_throughput > 0 ? throughput / traced_throughput : 0;
  EmitLayerMetrics(layers, values, report);
  if (!args.trace_file.empty() && !tracer.WriteJson(args.trace_file, args.workload)) {
    report->Fail("could not write the trace file " + args.trace_file);
  }
}

}  // namespace perfbench
