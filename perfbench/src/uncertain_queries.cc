// Workload `uncertain_queries`: one in-process decomposed session with
// memory storage and two engine threads, one closed-loop client.
//
// Data (all from the seed):
//   R(K,V,W)  2,000 keys x 3 weighted rows, repaired into I (one component
//             per key: about 10^958 worlds);
//   A(G,B)    12 keys x 2 rows repaired from A0: 4,096 worlds, which every
//             `agg` statement enumerates;
//   U(K,V)    6 keys x 3 rows repaired from U0, the only uncertain
//             relation that is written;
//   C(K,V,G)  a certain table of 20,000 rows.
// Mix: ~60% read (tuple-level possible/certain/conf over I; repair by key
// and choice of over 8-30-key slices of R; assert over U), ~20% agg
// (certain count, conf count, possible sum, group worlds by over A), ~20%
// write (insert/update/delete on C, update on U).

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "engine/prepared.h"
#include "isql/session.h"
#include "session_run.h"
#include "sql/parser.h"
#include "worlds/decomposed_world_set.h"
#include "workloads.h"

namespace perfbench {
namespace {

using maybms::base::SplitMix64;
using maybms::isql::EngineMode;
using maybms::isql::QueryResult;
using maybms::isql::Session;
using maybms::isql::SessionOptions;
using maybms::isql::StorageMode;

constexpr int kRKeys = 2000;
constexpr int kRRows = 3;
constexpr int kAKeys = 12;
constexpr int kARows = 2;
constexpr int kUKeys = 6;
constexpr int kURows = 3;
constexpr int kCRows = 20000;
constexpr size_t kThreads = 2;

struct Data {
  std::vector<Row> r;   // (K, V, W)
  std::vector<Row> a0;  // (G, B, W)
  std::vector<Row> u0;  // (K, V, W)
  std::vector<Row> c;   // (K, V, G)
};

Data MakeData(uint64_t seed) {
  SplitMix64 rng(seed * 7919 + 1);
  Data d;
  for (int k = 0; k < kRKeys; ++k) {
    for (int j = 0; j < kRRows; ++j) {
      d.r.push_back({k, k * 10 + j, Uniform(&rng, 1, 9)});
    }
  }
  for (int g = 0; g < kAKeys; ++g) {
    int64_t b0 = Uniform(&rng, 1, 10);
    for (int j = 0; j < kARows; ++j) {
      d.a0.push_back({g, b0 + j * Uniform(&rng, 1, 10), Uniform(&rng, 1, 5)});
    }
  }
  for (int k = 0; k < kUKeys; ++k) {
    for (int j = 0; j < kURows; ++j) {
      d.u0.push_back({k, k * 100 + j * 10 + Uniform(&rng, 0, 9),
                      Uniform(&rng, 1, 5)});
    }
  }
  for (int k = 0; k < kCRows; ++k) {
    d.c.push_back({k, Uniform(&rng, 0, 999), Uniform(&rng, 0, 49)});
  }
  return d;
}

void Load(Session* s, const std::string& table, const std::string& columns,
          const std::vector<Row>& rows, Report* report) {
  Exec(s, "create table " + table + " (" + columns + ");", report);
  constexpr size_t kBatch = 1000;
  for (size_t b = 0; b < rows.size(); b += kBatch) {
    Exec(s,
         "insert into " + table + " values " +
             Values(rows, b, std::min(rows.size(), b + kBatch)) + ";",
         report);
  }
}

SessionOptions Options(EngineMode engine, size_t threads) {
  SessionOptions o;
  o.engine = engine;
  o.storage = StorageMode::kMemory;
  o.threads = threads;
  return o;
}

void LoadA(Session* s, const Data& d, Report* report) {
  Load(s, "A0", "G integer, B integer, W integer", d.a0, report);
  Exec(s, "create table A as select G, B from A0 repair by key G weight W;",
       report);
}

void LoadU(Session* s, const Data& d, Report* report) {
  Load(s, "U0", "K integer, V integer, W integer", d.u0, report);
  Exec(s, "create table U as select K, V from U0 repair by key K weight W;",
       report);
}

std::unique_ptr<Session> BuildSession(const Data& d, size_t threads,
                                      Report* report) {
  auto s = std::make_unique<Session>(Options(EngineMode::kDecomposed, threads));
  Load(s.get(), "R", "K integer, V integer, W integer", d.r, report);
  Exec(s.get(), "create table I as select K, V from R repair by key K weight W;",
       report);
  LoadA(s.get(), d, report);
  LoadU(s.get(), d, report);
  Load(s.get(), "C", "K integer primary key, V integer, G integer", d.c, report);
  return s;
}

class Generator {
 public:
  Generator(uint64_t seed, const Data& d) : rng_(seed * 104729 + 3) {
    for (const Row& row : d.c) live_c_.push_back(row.a);
    next_key_ = kCRows;
    for (size_t i = 0; i < d.u0.size(); ++i) {
      u_[i / kURows][i % kURows] = d.u0[i].b;
    }
  }

  Stmt Next() {
    switch (class_deck_.Draw(&rng_)) {
      case 0:
        return Read();
      case 1:
        return Agg();
      default:
        return Write();
    }
  }

  size_t c_rows() const { return live_c_.size(); }
  /// Every write generated so far, in order.
  const std::vector<std::string>& writes() const { return writes_; }
  int64_t u_value(int k, int alt) const { return u_[k][alt]; }

 private:
  std::string Slice(const char* column) {
    int64_t len = Uniform(&rng_, 8, 30);
    int64_t lo = Uniform(&rng_, 0, kRKeys - 1 - len);
    return std::string(column) + " between " + std::to_string(lo) + " and " +
           std::to_string(lo + len - 1);
  }

  // Read shapes, cheapest mode first: world operations over R slices
  // (~1 ms), tuple-level quantifiers over I (~2-3 ms, the dominant mode
  // that holds the p50), assert over U (~3-5 ms, which holds the p90).
  Stmt Read() {
    Stmt s;
    s.cls = Cls::kRead;
    int shape = read_deck_.Draw(&rng_);
    if (shape < 3) {
      const char* head[] = {"select possible K, V from I where ",
                            "select certain K from I where ",
                            "select conf, K, V from I where "};
      s.sql = head[shape] + Slice("K") + ";";
    } else if (shape < 6) {
      const char* head[] = {"select possible V from R where ",
                            "select conf, K, V from R where ",
                            "select possible K from R where "};
      const char* tail[] = {" repair by key K weight W;",
                            " repair by key K weight W;", " choice of V;"};
      s.sql = head[shape - 3] + Slice("K") + tail[shape - 3];
    } else {  // every assert condition leaves some world
      int64_t k = Uniform(&rng_, 0, kUKeys - 1);
      std::string ks = std::to_string(k);
      std::string vs = std::to_string(u_[k][Uniform(&rng_, 0, kURows - 1)]);
      if (shape == 6) {
        s.sql = "select certain K from U assert not exists (select * from U "
                "where V = " + vs + ");";
      } else if (shape == 7) {
        s.sql = "select possible K, V from U assert not exists (select * "
                "from U where K = " + ks + " and V = " + vs + ");";
      } else {
        s.sql = "select conf, K, V from U assert exists (select * from U "
                "where K = " + ks + " and V = " + vs + ");";
      }
    }
    return s;
  }

  Stmt Agg() {
    Stmt s;
    s.cls = Cls::kAgg;
    int shape = agg_deck_.Draw(&rng_);
    std::string b = std::to_string(Uniform(&rng_, 5, 30));
    std::string g = std::to_string(Uniform(&rng_, 4, kAKeys));
    if (shape == 0) {
      s.sql = "select certain count(*) from A where B > " + b + ";";
      s.core = "select count(*) from A where B > " + b + ";";
    } else if (shape == 1) {
      s.sql = "select conf, count(*) from A where B > " + b + ";";
      s.core = "select count(*) from A where B > " + b + ";";
    } else if (shape == 2) {
      s.sql = "select possible sum(B) from A where G < " + g + ";";
      s.core = "select sum(B) from A where G < " + g + ";";
    } else {
      // Grouping on two keys keeps the number of groups, and so the cost
      // of this shape, the same from statement to statement.
      s.sql = "select possible B from A group worlds by (select sum(B) from A "
              "where G < 2);";
      s.core = "select sum(B) from A where G < 2;";
    }
    return s;
  }

  Stmt Write() {
    Stmt s;
    s.cls = Cls::kWrite;
    // Update on U (~3 ms) and delete on C (~4 ms) are 70% of the class,
    // and the p50 falls inside the delete mode. Insert and update on C
    // (~10-13 ms, with a wider spread) are 30%, and the p90 falls inside
    // the update mode.
    int shape = write_deck_.Draw(&rng_);
    if (shape == 0) {
      s.sql = "insert into C values (" + std::to_string(next_key_++) + ", " +
              std::to_string(Uniform(&rng_, 0, 999)) + ", " +
              std::to_string(Uniform(&rng_, 0, 49)) + ");";
      live_c_.push_back(next_key_ - 1);
    } else if (shape == 1) {
      size_t i = static_cast<size_t>(Uniform(&rng_, 0, live_c_.size() - 1));
      s.sql = "update C set V = V + " + std::to_string(Uniform(&rng_, 1, 9)) +
              " where K = " + std::to_string(live_c_[i]) + ";";
    } else if (shape == 2) {
      size_t i = static_cast<size_t>(Uniform(&rng_, 0, live_c_.size() - 1));
      s.sql = "delete from C where K = " + std::to_string(live_c_[i]) + ";";
      live_c_[i] = live_c_.back();
      live_c_.pop_back();
    } else {
      // Shifting every alternative of one key keeps them distinct, so the
      // assert conditions above stay satisfiable.
      int64_t k = Uniform(&rng_, 0, kUKeys - 1);
      int64_t delta = Uniform(&rng_, 1, 3) * (Uniform(&rng_, 0, 1) ? 1 : -1);
      for (int64_t& v : u_[k]) v += delta;
      s.sql = "update U set V = V + " + std::to_string(delta) + " where K = " +
              std::to_string(k) + ";";
    }
    writes_.push_back(s.sql);
    return s;
  }

  SplitMix64 rng_;
  // Classes: 60% read, 20% agg, 20% write.
  Deck class_deck_{Repeat({{0, 6}, {1, 2}, {2, 2}})};
  // Read shapes: I 64% (0-2), R slices 16% (3-5), U assert 20% (6-8).
  Deck read_deck_{Repeat({{0, 6}, {1, 5}, {2, 5}, {3, 2}, {4, 1}, {5, 1},
                          {6, 2}, {7, 2}, {8, 1}})};
  // Agg shapes: certain count, conf count, possible sum, group worlds by.
  Deck agg_deck_{Repeat({{0, 3}, {1, 3}, {2, 2}, {3, 2}})};
  // Write shapes: insert C, update C, delete C, update U.
  Deck write_deck_{Repeat({{0, 3}, {1, 3}, {2, 7}, {3, 7}})};
  std::vector<int64_t> live_c_;
  int64_t next_key_ = 0;
  std::array<std::array<int64_t, kURows>, kUKeys> u_{};
  std::vector<std::string> writes_;
};

// ---- Correctness gate ------------------------------------------------------

void CheckConfOnI(Session* s, const Data& d, Report* report) {
  maybms::Result<QueryResult> r = s->Execute("select conf, K, V from I;");
  if (!r.ok() || !r->has_table()) {
    report->Fail("conf on I did not return a table");
    return;
  }
  std::vector<double> total(kRKeys, 0);
  for (const Row& row : d.r) total[row.a] += static_cast<double>(row.c);
  std::vector<double> expected(d.r.size(), -1);  // by V = K*10 + j
  for (size_t i = 0; i < d.r.size(); ++i) {
    expected[i] = static_cast<double>(d.r[i].c) / total[d.r[i].a];
  }
  const maybms::Table& t = r->table();
  if (t.num_rows() != d.r.size()) {
    report->Fail("conf on I has " + std::to_string(t.num_rows()) +
                 " rows, expected " + std::to_string(d.r.size()));
    return;
  }
  size_t bad = 0;
  std::vector<bool> seen(d.r.size(), false);
  for (const maybms::Tuple& row : t.rows()) {
    // Columns: K, V, conf (conf is the trailing column).
    int64_t k = row.value(0).AsInteger();
    int64_t v = row.value(1).AsInteger();
    double conf = row.value(2).NumericValue();
    int64_t j = v - k * 10;
    if (k < 0 || k >= kRKeys || j < 0 || j >= kRRows) {
      ++bad;
      continue;
    }
    size_t i = static_cast<size_t>(k * kRRows + j);
    if (seen[i] || std::abs(conf - expected[i]) > 1e-9) ++bad;
    seen[i] = true;
  }
  if (bad > 0) {
    report->Fail(std::to_string(bad) + " tuples of I have conf != W/sum(W)");
  }
}

void CheckAgainstExplicit(Session* s, const Data& d, const Generator& gen,
                          Report* report) {
  Session twin_a(Options(EngineMode::kExplicit, 1));
  LoadA(&twin_a, d, report);
  Session twin_u(Options(EngineMode::kExplicit, 1));
  LoadU(&twin_u, d, report);
  for (const std::string& sql : gen.writes()) {
    if (sql.rfind("update U ", 0) == 0) Exec(&twin_u, sql, report);
  }

  std::vector<std::pair<Session*, std::string>> probes = {
      {&twin_a, "select certain count(*) from A where B > 12;"},
      {&twin_a, "select conf, count(*) from A where B > 9;"},
      {&twin_a, "select possible sum(B) from A;"},
      {&twin_a, "select possible sum(B) from A where G < 7;"},
      {&twin_a, "select conf, G, B from A;"},
      {&twin_a, "select possible B from A group worlds by (select sum(B) "
                "from A where G < 3);"},
      {&twin_u, "select possible sum(V) from U;"},
      {&twin_u, "select conf, K, V from U;"},
      {&twin_u, "select conf, sum(V) from U;"},
      {&twin_u, "select possible K, V from U assert not exists (select * "
                "from U where K = 2 and V = " +
                    std::to_string(gen.u_value(2, 1)) + ");"},
  };
  for (const auto& [twin, sql] : probes) {
    maybms::Result<QueryResult> got = s->Execute(sql);
    maybms::Result<QueryResult> want = twin->Execute(sql);
    if (!got.ok() || !want.ok() || !ResultsMatch(*got, *want)) {
      report->Fail("decomposed and explicit engines disagree on: " + sql);
    }
  }
}

void CheckExample28(Report* report) {
  Session s(Options(EngineMode::kDecomposed, kThreads));
  Exec(&s,
       "create table R (A text, B integer, C text, D integer);", report);
  Exec(&s,
       "insert into R values ('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6), "
       "('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5), ('a3', 20, 'c5', 6);",
       report);
  Exec(&s, "create table I as select A, B, C from R repair by key A weight D;",
       report);
  maybms::Result<QueryResult> r = s.Execute("select possible sum(B) from I;");
  std::vector<int64_t> sums;
  if (r.ok() && r->has_table()) {
    for (const maybms::Tuple& row : r->table().rows()) {
      sums.push_back(row.value(0).AsInteger());
    }
  }
  std::sort(sums.begin(), sums.end());
  if (sums != std::vector<int64_t>{44, 49, 50, 55}) {
    report->Fail("Example 2.8: possible sum(B) is not {44, 49, 50, 55}");
  }
}

void CheckCRows(Session* s, const Generator& gen, Report* report) {
  maybms::Result<QueryResult> r = s->Execute("select certain count(*) from C;");
  bool ok = false;
  if (r.ok() && r->has_table()) {
    const maybms::Table& t = r->table();
    ok = t.num_rows() == 1 &&
         t.row(0).value(0).AsInteger() == static_cast<int64_t>(gen.c_rows());
  }
  if (!ok) report->Fail("row count of C differs from the generated writes");
}

// ---- Traced-phase probes ---------------------------------------------------

struct TraceTwins {
  std::unique_ptr<Session> threads1;  // threads=1 twin for base.speedup_t2
  maybms::worlds::World sample;       // one world for the engine probes
};

// `pre_write` is a clone of the world-set taken before a write ran.
void TraceExtras(Session* s, const Stmt& stmt, const TracedOutcome& t,
                 maybms::worlds::WorldSet* pre_write, uint64_t id,
                 TraceTwins* twins, Tracer* tracer, LayerSamples* layers,
                 Report* report) {
  if (stmt.cls == Cls::kWrite) {
    uint64_t span = tracer->Open(id, stmt.cls, "worlds.apply", 0);
    maybms::Status applied = pre_write->ApplyDml(*t.stmt, s->catalog());
    layers->Add("worlds.apply_ms", tracer->Close(span));
    auto twin = twins->threads1->ExecuteStatement(*t.stmt);  // keep in step
    if (!applied.ok() || !twin.ok()) {
      report->Fail("a replayed write failed: " + stmt.sql);
    }
    return;
  }
  const auto& select = static_cast<const maybms::sql::SelectStatement&>(*t.stmt);
  uint64_t span = tracer->Open(id, stmt.cls, "worlds.evaluate", 0);
  auto eval = s->world_set().EvaluateSelect(select, s->options().max_display_worlds);
  layers->Add(std::string("worlds.evaluate_ms.") + ClsName(stmt.cls),
              tracer->Close(span));

  span = tracer->Open(id, stmt.cls, "base.threads1", 0);
  auto single = twins->threads1->ExecuteStatement(*t.stmt);
  layers->Add(std::string("threads1_ms.") + ClsName(stmt.cls),
              tracer->Close(span));
  if (!eval.ok() || !single.ok()) {
    report->Fail("a replayed read failed: " + stmt.sql);
    return;
  }
  if (stmt.cls != Cls::kAgg) return;

  auto core = maybms::sql::Parser::ParseStatement(stmt.core);
  if (!core.ok()) {
    report->Fail("core statement does not parse: " + stmt.core);
    return;
  }
  const auto& core_select = static_cast<const maybms::sql::SelectStatement&>(**core);
  span = tracer->Open(id, stmt.cls, "engine.prepare", 0);
  auto prepared =
      maybms::engine::PreparedSelect::Prepare(core_select, twins->sample.db);
  layers->Add("engine.prepare_us", tracer->Close(span) * 1000);
  if (!prepared.ok()) {
    report->Fail("core statement does not prepare: " + stmt.core);
    return;
  }
  span = tracer->Open(id, stmt.cls, "engine.world_exec", 0);
  auto table = prepared->Execute(twins->sample.db);
  layers->Add("engine.world_exec_us", tracer->Close(span) * 1000);
  if (!table.ok()) report->Fail("core statement failed in one world: " + stmt.core);
}

}  // namespace

void RunUncertainQueries(const Args& args, Report* report) {
  const Data data = MakeData(args.seed);

  Samples setup;
  std::unique_ptr<Session> session;
  auto teardown = [&] { session.reset(); };
  auto build = [&] { session = BuildSession(data, kThreads, report); };
  TimeSetups(&setup, teardown, build);
  if (!report->correct()) return;
  const auto& ws =
      static_cast<const maybms::worlds::DecomposedWorldSet&>(session->world_set());
  report->Note("components: " + std::to_string(ws.num_components()) +
               ", log10(worlds): " + std::to_string(ws.Log10NumWorlds()));

  Generator gen(args.seed, data);
  auto run_one = [&](ClassSamples* samples) {
    Stmt stmt = gen.Next();
    Outcome o = RunPlain(session.get(), stmt.sql);
    report->CountStatement(o.ok);
    if (!o.ok) report->Fail("statement failed: " + o.error + " in: " + stmt.sql);
    if (samples != nullptr) samples->of(stmt.cls).Add(o.ms);
  };

  // Warm-up: let allocators and lazily built state settle before timing.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Clock::time_point warm_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(std::min(1.0, untraced_s / 10)));
  while (Clock::now() < warm_end) run_one(nullptr);

  ClassSamples samples;
  size_t n = 0;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(untraced_s));
  while (Clock::now() < deadline) {
    run_one(&samples);
    ++n;
  }
  const double wall_s = MsBetween(start, Clock::now()) / 1000;
  const double throughput = static_cast<double>(n) / wall_s;

  LayerSamples layers;
  Tracer tracer;
  double traced_throughput = 0;
  if (args.trace) {
    TraceTwins twins;
    twins.threads1 = BuildSession(data, 1, report);
    for (const std::string& sql : gen.writes()) {
      Exec(twins.threads1.get(), sql, report);
    }
    SplitMix64 rng(args.seed);
    auto sample = session->world_set().SampleWorld(&rng);
    if (!sample.ok()) {
      report->Fail("SampleWorld failed: " + sample.status().ToString());
      return;
    }
    twins.sample = std::move(sample).value();

    double main_ms = 0;
    size_t traced_n = 0;
    uint64_t id = 0;
    Clock::time_point t_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds / 2));
    while (Clock::now() < t_end) {
      Stmt stmt = gen.Next();
      std::unique_ptr<maybms::worlds::WorldSet> pre_write;
      if (stmt.cls == Cls::kWrite) pre_write = session->world_set().Clone();
      Clock::time_point t0 = Clock::now();
      TracedOutcome t = RunTraced(session.get(), stmt, ++id, &tracer);
      main_ms += MsBetween(t0, Clock::now());
      ++traced_n;
      report->CountStatement(t.ok);
      if (!t.ok) {
        report->Fail("statement failed: " + t.error + " in: " + stmt.sql);
        continue;
      }
      AddTracedSamples(stmt, t, &layers);
      TraceExtras(session.get(), stmt, t, pre_write.get(), id, &twins, &tracer,
                  &layers, report);
    }
    traced_throughput = static_cast<double>(traced_n) / (main_ms / 1000);
  }

  CheckConfOnI(session.get(), data, report);
  CheckAgainstExplicit(session.get(), data, gen, report);
  CheckExample28(report);
  CheckCRows(session.get(), gen, report);
  const double components = static_cast<double>(ws.num_components());
  const double log10_worlds = ws.Log10NumWorlds();
  TimeSetups(&setup, teardown, build);  // replaces the session `ws` refers to

  if (!args.trace) {
    report->CheckSamples("read", samples.read);
    report->CheckSamples("agg", samples.agg);
    report->CheckSamples("write", samples.write);
    EmitCommonEndToEnd(setup.Median(), throughput, samples.read, samples.write,
                       report);
    report->Extra("agg_p50_ms", samples.agg.Median(), "ms");
    report->Extra("agg_p90_ms", samples.agg.Quantile(0.9), "ms");
    return;
  }

  std::map<std::string, double> values;
  const double eval_agg = layers.Median("worlds.evaluate_ms.agg");
  values["isql.self_ms.read"] = layers.Median("isql.execute_ms.read") -
                                layers.Median("worlds.evaluate_ms.read");
  values["worlds.components"] = components;
  values["worlds.log10_worlds"] = log10_worlds;
  if (eval_agg > 0) {
    values["engine.world_share"] =
        layers.Median("engine.world_exec_us") * 4096 / (eval_agg * 1000);
  }
  for (const char* cls : {"read", "agg"}) {
    double t2 = layers.Median(std::string("isql.execute_ms.") + cls);
    if (t2 > 0) {
      values[std::string("base.speedup_t2.") + cls] =
          layers.Median(std::string("threads1_ms.") + cls) / t2;
    }
  }
  values["trace.coverage"] = tracer.Coverage("statement");
  values["trace.overhead"] = traced_throughput > 0 ? throughput / traced_throughput : 0;
  EmitLayerMetrics(layers, values, report);
  if (!args.trace_file.empty() && !tracer.WriteJson(args.trace_file, args.workload)) {
    report->Fail("could not write the trace file " + args.trace_file);
  }
}

}  // namespace perfbench
