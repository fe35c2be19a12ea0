#ifndef PERFBENCH_SESSION_RUN_H_
#define PERFBENCH_SESSION_RUN_H_

// Running one generated statement against an in-process isql::Session,
// untraced (as a shell user would: parse, execute, format) or traced
// (the same three steps, each inside its own span), and the fixed list of
// per-layer metrics every traced run reports.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "isql/session.h"
#include "sql/ast.h"

namespace perfbench {

/// Latency samples per statement class.
struct ClassSamples {
  Samples read;
  Samples agg;
  Samples write;
  Samples& of(Cls cls) {
    return cls == Cls::kRead ? read : cls == Cls::kAgg ? agg : write;
  }
};

/// One generated row of a three-column table.
struct Row {
  int64_t a, b, c;
};

/// "(a, b, c), (a, b, c), ..." for rows [begin, end).
std::string Values(const std::vector<Row>& rows, size_t begin, size_t end);

/// Executes a set-up or replay statement; a failure fails the run.
bool Exec(maybms::isql::Session* session, const std::string& sql,
          Report* report);

struct Outcome {
  bool ok = false;
  double ms = 0;
  std::string error;
};

/// Session::Execute plus isql::FormatQueryResult, timed together.
Outcome RunPlain(maybms::isql::Session* session, const std::string& sql);

/// The traced main path of one statement: a root span "statement" with
/// the children "sql.parse", "isql.execute" and "isql.format". Reads and
/// aggregates run under an unlimited base::QueryContext so the bytes the
/// worlds layer charges can be read back.
struct TracedOutcome {
  bool ok = false;
  std::string error;
  maybms::sql::StatementPtr stmt;  // the parsed statement (null on failure)
  double parse_ms = 0;
  double exec_ms = 0;
  double format_ms = 0;
  size_t answer_bytes = 0;
  uint64_t bytes_charged = 0;
};
TracedOutcome RunTraced(maybms::isql::Session* session, const Stmt& stmt,
                        uint64_t id, Tracer* tracer);

/// Per-layer sample sets, keyed by metric name.
class LayerSamples {
 public:
  void Add(const std::string& name, double v) { samples_[name].Add(v); }
  /// Median of a metric's samples (0 when it has none).
  double Median(const std::string& name) const;
  bool Has(const std::string& name) const;

 private:
  std::map<std::string, Samples> samples_;
};

/// Emits every per-layer metric of the benchmark, in a fixed order. A
/// metric takes its value from `values` if present there, else the median
/// of its samples; a layer the workload does not exercise reports 0 and a
/// note saying so.
void EmitLayerMetrics(const LayerSamples& layers,
                      const std::map<std::string, double>& values,
                      Report* report);

/// Records the standard per-layer samples of one traced statement.
void AddTracedSamples(const Stmt& stmt, const TracedOutcome& t,
                      LayerSamples* layers);

}  // namespace perfbench

#endif  // PERFBENCH_SESSION_RUN_H_
