#include "session_run.h"

#include "base/query_context.h"
#include "isql/formatter.h"
#include "sql/parser.h"

namespace perfbench {

using maybms::isql::QueryResult;
using maybms::isql::Session;

std::string Values(const std::vector<Row>& rows, size_t begin, size_t end) {
  std::string sql;
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) sql += ", ";
    sql += "(" + std::to_string(rows[i].a) + ", " + std::to_string(rows[i].b) +
           ", " + std::to_string(rows[i].c) + ")";
  }
  return sql;
}

bool Exec(Session* session, const std::string& sql, Report* report) {
  maybms::Result<QueryResult> r = session->Execute(sql);
  if (!r.ok()) {
    report->Fail("statement failed: " + r.status().ToString() +
                 " in: " + sql.substr(0, 120));
  }
  return r.ok();
}

Outcome RunPlain(Session* session, const std::string& sql) {
  Outcome out;
  Clock::time_point t0 = Clock::now();
  maybms::Result<QueryResult> r = session->Execute(sql);
  if (r.ok()) {
    // Formatting is part of what a shell user waits for.
    const std::string text = maybms::isql::FormatQueryResult(*r);
    out.ok = true;
  } else {
    out.error = r.status().ToString();
  }
  out.ms = MsBetween(t0, Clock::now());
  return out;
}

TracedOutcome RunTraced(Session* session, const Stmt& stmt, uint64_t id,
                        Tracer* tracer) {
  TracedOutcome out;
  uint64_t root = tracer->Open(id, stmt.cls, "statement", 0);

  uint64_t span = tracer->Open(id, stmt.cls, "sql.parse", root);
  maybms::Result<maybms::sql::StatementPtr> parsed =
      maybms::sql::Parser::ParseStatement(stmt.sql);
  out.parse_ms = tracer->Close(span);
  if (!parsed.ok()) {
    out.error = parsed.status().ToString();
    tracer->Close(root);
    return out;
  }
  out.stmt = std::move(parsed).value();

  span = tracer->Open(id, stmt.cls, "isql.execute", root);
  maybms::Result<QueryResult> r = [&] {
    if (stmt.cls == Cls::kWrite) return session->ExecuteStatement(*out.stmt);
    maybms::base::QueryContext ctx{maybms::base::GovernanceLimits{}};
    maybms::base::QueryContextScope scope(&ctx);
    maybms::Result<QueryResult> res = session->ExecuteStatement(*out.stmt);
    out.bytes_charged = ctx.bytes_charged();
    return res;
  }();
  out.exec_ms = tracer->Close(span);
  if (!r.ok()) {
    out.error = r.status().ToString();
    tracer->Close(root);
    return out;
  }

  span = tracer->Open(id, stmt.cls, "isql.format", root);
  std::string text = maybms::isql::FormatQueryResult(*r);
  out.format_ms = tracer->Close(span);
  out.answer_bytes = text.size();
  out.ok = true;
  tracer->Close(root);
  return out;
}

double LayerSamples::Median(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : it->second.Median();
}

bool LayerSamples::Has(const std::string& name) const {
  auto it = samples_.find(name);
  return it != samples_.end() && !it->second.empty();
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, grouped by the src/ layer it measures.
constexpr LayerMetric kLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"isql.execute_ms.read", "ms"},
    {"isql.execute_ms.agg", "ms"},
    {"isql.execute_ms.write", "ms"},
    {"isql.self_ms.read", "ms"},
    {"isql.format_us", "us"},
    {"isql.answer_bytes", "bytes"},
    {"isql.publish_ms", "ms"},
    {"worlds.evaluate_ms.read", "ms"},
    {"worlds.evaluate_ms.agg", "ms"},
    {"worlds.apply_ms", "ms"},
    {"worlds.to_snapshot_ms", "ms"},
    {"worlds.from_snapshot_ms", "ms"},
    {"worlds.components", "count"},
    {"worlds.log10_worlds", "log10"},
    {"worlds.bytes_charged", "bytes"},
    {"engine.prepare_us", "us"},
    {"engine.world_exec_us", "us"},
    {"engine.world_share", "ratio"},
    {"base.speedup_t2.agg", "ratio"},
    {"base.speedup_t2.read", "ratio"},
    {"storage.persist_ms", "ms"},
    {"storage.pages_flushed", "count"},
    {"storage.pool_hits", "count"},
    {"storage.pool_misses", "count"},
    {"storage.pool_evictions", "count"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.file_growth_kib", "KiB"},
    {"storage.generation", "count"},
    {"server.inproc_ms.read", "ms"},
    {"server.inproc_ms.write", "ms"},
    {"server.wire_ms.read", "ms"},
    {"server.statements_served", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

}  // namespace

void EmitLayerMetrics(const LayerSamples& layers,
                      const std::map<std::string, double>& values,
                      Report* report) {
  std::string idle;
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    if (it != values.end()) {
      report->Metric(m.name, it->second, m.unit);
    } else if (layers.Has(m.name)) {
      report->Metric(m.name, layers.Median(m.name), m.unit);
    } else {
      report->Metric(m.name, 0, m.unit);
      idle += idle.empty() ? m.name : std::string(", ") + m.name;
    }
  }
  if (!idle.empty()) {
    report->Note("not exercised by this workload (reported as 0): " + idle);
  }
}

void AddTracedSamples(const Stmt& stmt, const TracedOutcome& t,
                      LayerSamples* layers) {
  layers->Add("sql.parse_us", t.parse_ms * 1000);
  layers->Add(std::string("isql.execute_ms.") + ClsName(stmt.cls), t.exec_ms);
  layers->Add("isql.format_us", t.format_ms * 1000);
  layers->Add("isql.answer_bytes", static_cast<double>(t.answer_bytes));
  if (stmt.cls != Cls::kWrite) {
    layers->Add("worlds.bytes_charged", static_cast<double>(t.bytes_charged));
  }
}

}  // namespace perfbench
