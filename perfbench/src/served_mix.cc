// Workload `served_mix`: an in-process server::Server on 127.0.0.1
// (decomposed engine, memory storage, one engine thread) with two reader
// connections and one writer connection, each a closed loop on its own
// load thread.
//
// Data (from the seed): R(K,V,W) 300 keys x 3 weighted rows repaired into
// I, and a certain table C(K,V,G) of 2,000 rows. Readers send quantifier
// probes on I (possible/certain/conf over key slices) and certain
// aggregates over C; the writer inserts, updates and deletes rows of C.
// The measured phase ends when the writer reaches its deadline.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/query_context.h"
#include "isql/formatter.h"
#include "isql/session.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
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
using maybms::server::Server;
using maybms::StatusCode;

constexpr int kRKeys = 300;
constexpr int kRRows = 3;
constexpr int kCRows = 2000;
constexpr int kReaders = 2;
constexpr int kTimeoutMs = 30'000;

struct Data {
  std::vector<Row> r;  // (K, V, W)
  std::vector<Row> c;  // (K, V, G)
};

Data MakeData(uint64_t seed) {
  SplitMix64 rng(seed * 3571 + 11);
  Data d;
  for (int k = 0; k < kRKeys; ++k) {
    for (int j = 0; j < kRRows; ++j) {
      d.r.push_back({k, k * 10 + j, Uniform(&rng, 1, 9)});
    }
  }
  for (int k = 0; k < kCRows; ++k) {
    d.c.push_back({k, Uniform(&rng, 0, 999), Uniform(&rng, 0, 49)});
  }
  return d;
}

/// The set-up script; the server and the in-process twins all load it.
std::vector<std::string> SetupStatements(const Data& d) {
  return {
      "create table R (K integer, V integer, W integer);",
      "insert into R values " + Values(d.r, 0, d.r.size()) + ";",
      "create table I as select K, V from R repair by key K weight W;",
      "create table C (K integer primary key, V integer, G integer);",
      "insert into C values " + Values(d.c, 0, d.c.size()) + ";",
  };
}

SessionOptions EngineOptions() {
  SessionOptions o;
  o.engine = EngineMode::kDecomposed;
  o.storage = StorageMode::kMemory;
  o.threads = 1;
  return o;
}

std::unique_ptr<Server> StartServer(const Data& d, Report* report) {
  maybms::server::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.session = EngineOptions();
  auto server = Server::Start(options);
  if (!server.ok()) {
    report->Fail("server did not start: " + server.status().ToString());
    return nullptr;
  }
  for (const std::string& sql : SetupStatements(d)) {
    auto [code, text] = (*server)->Execute(sql);
    if (code != StatusCode::kOk) report->Fail("set-up failed: " + text);
  }
  return std::move(server).value();
}

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {
    for (int k = 0; k < kCRows; ++k) live_c_.push_back(k);
  }

  Stmt NextRead() {
    Stmt s;
    s.cls = Cls::kRead;
    int shape = read_deck_.Draw(&rng_);
    if (shape < 3) {
      const char* head[] = {"select possible K, V from I where ",
                            "select certain K from I where ",
                            "select conf, K, V from I where "};
      int64_t len = Uniform(&rng_, 8, 30);
      int64_t lo = Uniform(&rng_, 0, kRKeys - 1 - len);
      s.sql = head[shape] + std::string("K between ") + std::to_string(lo) +
              " and " + std::to_string(lo + len - 1) + ";";
    } else if (shape == 3) {
      s.sql = "select certain count(*) from C where V > " +
              std::to_string(Uniform(&rng_, 0, 999)) + ";";
    } else {
      s.sql = "select certain sum(V) from C where G = " +
              std::to_string(Uniform(&rng_, 0, 49)) + ";";
    }
    return s;
  }

  Stmt NextWrite() {
    Stmt s;
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
        s.sql = "update C set V = V + " + std::to_string(Uniform(&rng_, 1, 9)) +
                " where K = " + key + ";";
      } else {
        s.sql = "delete from C where K = " + key + ";";
        live_c_[i] = live_c_.back();
        live_c_.pop_back();
      }
    }
    return s;
  }

  /// Mixed stream for the serial traced phase: two reads per write, the
  /// ratio of the concurrent phase's connections.
  Stmt Next() { return mix_deck_.Draw(&rng_) == 0 ? NextRead() : NextWrite(); }

  size_t c_rows() const { return live_c_.size(); }

 private:
  SplitMix64 rng_;
  // Reads: quantifiers over I 60% (0-2), certain aggregates over C 40%.
  Deck read_deck_{Repeat({{0, 2}, {1, 2}, {2, 2}, {3, 2}, {4, 2}})};
  // Writes: insert, update and delete in equal shares, so the size of C
  // stays where set-up left it however many writes a run completes.
  Deck write_deck_{Repeat({{0, 1}, {1, 1}, {2, 1}})};
  Deck mix_deck_{Repeat({{0, 2}, {1, 1}})};
  std::vector<int64_t> live_c_;
  int64_t next_key_ = kCRows;
};

/// One client connection's closed loop.
struct ClientResult {
  ClassSamples samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

void ClientLoop(uint16_t port, Generator* gen, bool writer,
                Clock::time_point deadline, std::atomic<bool>* stop,
                ClientResult* out) {
  auto conn = maybms::server::ConnectTo("127.0.0.1", port);
  if (!conn.ok()) {
    out->failed = out->attempted = 1;
    out->first_error = "connect: " + conn.status().ToString();
    if (writer) stop->store(true);
    return;
  }
  while (writer ? Clock::now() < deadline : !stop->load()) {
    Stmt stmt = writer ? gen->NextWrite() : gen->NextRead();
    Clock::time_point t0 = Clock::now();
    auto r = maybms::server::RoundTrip(*conn, stmt.sql, kTimeoutMs);
    double ms = MsBetween(t0, Clock::now());
    ++out->attempted;
    if (!r.ok() || r->first != StatusCode::kOk) {
      ++out->failed;
      if (out->first_error.empty()) {
        out->first_error = (r.ok() ? r->second : r.status().ToString()) +
                           " in: " + stmt.sql;
      }
      if (!r.ok()) break;  // the connection is gone
      continue;
    }
    out->samples.of(stmt.cls).Add(ms);
  }
  if (writer) stop->store(true);
}

int64_t LastLineInteger(const std::string& text) {
  size_t end = text.find_last_not_of("\n ");
  if (end == std::string::npos) return -1;
  size_t begin = text.find_last_of('\n', end);
  begin = begin == std::string::npos ? 0 : begin + 1;
  return std::strtoll(text.substr(begin, end - begin + 1).c_str(), nullptr, 10);
}

void CheckServed(Server* server, const Generator& writer_gen, Report* report) {
  static const char* const kProbes[] = {
      "select certain count(*) from C;",
      "select certain sum(V) from C where G = 3;",
      "select possible K, V from I where K between 10 and 30;",
      "select certain K from I where K between 100 and 140;",
      "select conf, K, V from I where K between 200 and 220;",
      "select certain count(*) from C where V > 500;",
  };
  auto conn = maybms::server::ConnectTo("127.0.0.1", server->port());
  if (!conn.ok()) {
    report->Fail("gate: cannot connect: " + conn.status().ToString());
    return;
  }
  for (const char* sql : kProbes) {
    auto wire = maybms::server::RoundTrip(*conn, sql, kTimeoutMs);
    auto local = server->Execute(sql);
    if (!wire.ok() || wire->first != local.first || wire->second != local.second) {
      report->Fail(std::string("wire answer differs from Server::Execute: ") + sql);
    }
  }
  auto count = server->Execute("select certain count(*) from C;");
  if (LastLineInteger(count.second) != static_cast<int64_t>(writer_gen.c_rows())) {
    report->Fail("row count of C is " + std::to_string(LastLineInteger(count.second)) +
                 ", expected loaded + inserts - deletes = " +
                 std::to_string(writer_gen.c_rows()));
  }
}

// ---- Traced phase ------------------------------------------------------------

/// In-process replicas that replay the traced statements in lockstep with
/// the served one.
struct Twins {
  std::unique_ptr<Server> server;     // for server.inproc_ms
  std::unique_ptr<Session> publish;   // publish_snapshots=true
  std::unique_ptr<Session> plain;     // publish_snapshots=false
};

void RunTracedPhase(const Data& data, Server* served, Generator* gen,
                    double seconds, Tracer* tracer, LayerSamples* layers,
                    double* busy_s, uint64_t* statements, Report* report) {
  Twins twins;
  twins.server = StartServer(data, report);
  SessionOptions publish = EngineOptions();
  publish.publish_snapshots = true;
  twins.publish = std::make_unique<Session>(publish);
  twins.plain = std::make_unique<Session>(EngineOptions());
  for (const std::string& sql : SetupStatements(data)) {
    if (!twins.publish->Execute(sql).ok() || !twins.plain->Execute(sql).ok()) {
      report->Fail("twin set-up failed: " + sql.substr(0, 80));
    }
  }
  auto conn = maybms::server::ConnectTo("127.0.0.1", served->port());
  if (!twins.server || !conn.ok()) {
    report->Fail("traced phase could not connect");
    return;
  }
  Samples inproc_read;
  Samples round_trip_read;
  uint64_t id = 0;
  Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < end && report->correct()) {
    Stmt stmt = gen->Next();
    ++id;
    Clock::time_point t0 = Clock::now();
    uint64_t root = tracer->Open(id, stmt.cls, "statement", 0);
    uint64_t span = tracer->Open(id, stmt.cls, "server.round_trip", root);
    auto wire = maybms::server::RoundTrip(*conn, stmt.sql, kTimeoutMs);
    const double rt = tracer->Close(span);
    tracer->Close(root);
    *busy_s += MsBetween(t0, Clock::now()) / 1000;
    ++*statements;
    report->CountStatement(wire.ok() && wire->first == StatusCode::kOk);
    if (!wire.ok() || wire->first != StatusCode::kOk) {
      report->Fail("served statement failed: " + stmt.sql);
      break;
    }

    span = tracer->Open(id, stmt.cls, "sql.parse", 0);
    auto parsed = maybms::sql::Parser::ParseStatement(stmt.sql);
    layers->Add("sql.parse_us", tracer->Close(span) * 1000);

    span = tracer->Open(id, stmt.cls, "server.inproc", 0);
    auto inproc = twins.server->Execute(stmt.sql);
    const double in_ms = tracer->Close(span);
    layers->Add(std::string("server.inproc_ms.") + ClsName(stmt.cls), in_ms);
    if (inproc.first != StatusCode::kOk || !parsed.ok()) {
      report->Fail("in-process twin failed: " + stmt.sql);
      break;
    }
    if (stmt.cls == Cls::kRead) {
      round_trip_read.Add(rt);
      inproc_read.Add(in_ms);
      maybms::base::QueryContext ctx{maybms::base::GovernanceLimits{}};
      span = tracer->Open(id, stmt.cls, "isql.execute", 0);
      auto result = [&] {
        maybms::base::QueryContextScope scope(&ctx);
        return twins.plain->ExecuteStatement(**parsed);
      }();
      layers->Add("isql.execute_ms.read", tracer->Close(span));
      layers->Add("worlds.bytes_charged", static_cast<double>(ctx.bytes_charged()));
      if (!result.ok()) {
        report->Fail("twin session failed: " + stmt.sql);
        break;
      }
      span = tracer->Open(id, stmt.cls, "isql.format", 0);
      std::string text = maybms::isql::FormatQueryResult(*result);
      layers->Add("isql.format_us", tracer->Close(span) * 1000);
      layers->Add("isql.answer_bytes", static_cast<double>(text.size()));
      const auto& select =
          static_cast<const maybms::sql::SelectStatement&>(**parsed);
      span = tracer->Open(id, stmt.cls, "worlds.evaluate", 0);
      auto eval = twins.plain->world_set().EvaluateSelect(
          select, twins.plain->options().max_display_worlds);
      layers->Add("worlds.evaluate_ms.read", tracer->Close(span));
      if (!eval.ok()) {
        report->Fail("EvaluateSelect failed: " + stmt.sql);
        break;
      }
      continue;
    }
    std::unique_ptr<maybms::worlds::WorldSet> pre = twins.plain->world_set().Clone();
    span = tracer->Open(id, stmt.cls, "isql.execute", 0);
    auto off = twins.plain->ExecuteStatement(**parsed);
    const double off_ms = tracer->Close(span);
    span = tracer->Open(id, stmt.cls, "isql.execute_publish", 0);
    auto on = twins.publish->ExecuteStatement(**parsed);
    const double on_ms = tracer->Close(span);
    layers->Add("isql.execute_ms.write", off_ms);
    layers->Add("publish_on_ms", on_ms);
    span = tracer->Open(id, stmt.cls, "worlds.apply", 0);
    maybms::Status applied = pre->ApplyDml(**parsed, twins.plain->catalog());
    layers->Add("worlds.apply_ms", tracer->Close(span));
    if (!off.ok() || !on.ok() || !applied.ok()) {
      report->Fail("twin write failed: " + stmt.sql);
      break;
    }
  }
  layers->Add("server.wire_ms.read", round_trip_read.Median() - inproc_read.Median());
  layers->Add("trace.coverage_served",
              round_trip_read.Sum() > 0 ? inproc_read.Sum() / round_trip_read.Sum() : 0);
  const auto& ws = static_cast<const maybms::worlds::DecomposedWorldSet&>(
      twins.plain->world_set());
  layers->Add("worlds.components", static_cast<double>(ws.num_components()));
  layers->Add("worlds.log10_worlds", ws.Log10NumWorlds());
}

}  // namespace

void RunServedMix(const Args& args, Report* report) {
  const Data data = MakeData(args.seed);

  Samples setup;
  std::unique_ptr<Server> server;
  auto teardown = [&] { server.reset(); };  // ~Server drains and joins
  auto build = [&] { server = StartServer(data, report); };
  TimeSetups(&setup, teardown, build);
  if (!server || !report->correct()) return;

  // One writer generator owns the key set of C; readers only need slices.
  Generator writer_gen(args.seed * 31 + 1);
  std::vector<std::unique_ptr<Generator>> reader_gens;
  for (int i = 0; i < kReaders; ++i) {
    reader_gens.push_back(std::make_unique<Generator>(args.seed * 31 + 2 + i));
  }

  auto run_concurrent = [&](double seconds, std::vector<ClientResult>* results) {
    std::atomic<bool> stop{false};
    results->assign(kReaders + 1, ClientResult());
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    threads.emplace_back(ClientLoop, server->port(), &writer_gen, true, deadline,
                         &stop, &(*results)[0]);
    for (int i = 0; i < kReaders; ++i) {
      threads.emplace_back(ClientLoop, server->port(), reader_gens[i].get(), false,
                           deadline, &stop, &(*results)[i + 1]);
    }
    for (std::thread& t : threads) t.join();
  };

  // The traced phase runs first, while the served instance still holds the
  // set-up state its in-process twins start from; the twins then replay
  // every traced statement in lockstep.
  LayerSamples layers;
  Tracer tracer;
  double traced_busy_s = 0;
  uint64_t traced_n = 0;
  if (args.trace) {
    RunTracedPhase(data, server.get(), &writer_gen, args.seconds / 2, &tracer,
                   &layers, &traced_busy_s, &traced_n, report);
    if (!report->correct()) return;
  }

  ClassSamples samples;
  uint64_t completed = 0;
  uint64_t served_before = server->statements_served();
  Clock::time_point start = Clock::now();
  if (args.trace) {
    // The untraced half of a traced run: the same serial stream on one
    // connection, without spans or replicas, for the overhead ratio.
    auto conn = maybms::server::ConnectTo("127.0.0.1", server->port());
    Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds / 2));
    while (conn.ok() && Clock::now() < end) {
      Stmt stmt = writer_gen.Next();
      auto r = maybms::server::RoundTrip(*conn, stmt.sql, kTimeoutMs);
      bool ok = r.ok() && r->first == StatusCode::kOk;
      report->CountStatement(ok);
      if (!ok) {
        report->Fail("statement failed: " + stmt.sql);
        break;
      }
      ++completed;
    }
    if (!conn.ok()) report->Fail("cannot connect: " + conn.status().ToString());
  } else {
    std::vector<ClientResult> results;
    run_concurrent(std::min(1.0, args.seconds / 10), &results);  // warm-up
    for (const ClientResult& r : results) {
      for (uint64_t i = 0; i < r.attempted; ++i) report->CountStatement(i >= r.failed);
      if (!r.first_error.empty()) report->Fail("statement failed: " + r.first_error);
    }
    served_before = server->statements_served();
    start = Clock::now();
    run_concurrent(args.seconds, &results);
    for (const ClientResult& r : results) {
      samples.read.Append(r.samples.read);
      samples.write.Append(r.samples.write);
      completed += r.attempted - r.failed;
      for (uint64_t i = 0; i < r.attempted; ++i) report->CountStatement(i >= r.failed);
      if (!r.first_error.empty()) report->Fail("statement failed: " + r.first_error);
    }
  }
  const double wall_s = MsBetween(start, Clock::now()) / 1000;
  const uint64_t served_delta = server->statements_served() - served_before;
  const double throughput = static_cast<double>(completed) / wall_s;
  if (served_delta != completed) {
    report->Fail("server counted " + std::to_string(served_delta) +
                 " statements, clients completed " + std::to_string(completed));
  }

  CheckServed(server.get(), writer_gen, report);
  TimeSetups(&setup, teardown, build);
  server.reset();

  if (!args.trace) {
    report->CheckSamples("read", samples.read);
    report->CheckSamples("write", samples.write);
    EmitCommonEndToEnd(setup.Median(), throughput, samples.read, samples.write,
                       report);
    return;
  }
  std::map<std::string, double> values;
  values["isql.self_ms.read"] = layers.Median("isql.execute_ms.read") -
                                layers.Median("worlds.evaluate_ms.read");
  values["isql.publish_ms"] =
      layers.Median("publish_on_ms") - layers.Median("isql.execute_ms.write");
  values["server.statements_served"] = static_cast<double>(served_delta);
  values["trace.coverage"] = layers.Median("trace.coverage_served");
  const double traced_throughput =
      traced_busy_s > 0 ? static_cast<double>(traced_n) / traced_busy_s : 0;
  values["trace.overhead"] = traced_throughput > 0 ? throughput / traced_throughput : 0;
  report->Note("trace.coverage here is the in-process statement time over the "
               "read round-trip time");
  EmitLayerMetrics(layers, values, report);
  if (!args.trace_file.empty() && !tracer.WriteJson(args.trace_file, args.workload)) {
    report->Fail("could not write the trace file " + args.trace_file);
  }
}

}  // namespace perfbench
