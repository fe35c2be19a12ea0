#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the I-SQL benchmark program: arguments, sample sets
// and percentiles, the metric report (human-readable lines, then one JSON
// object as the last line of stdout), the in-memory span tracer, and the
// answer comparisons the correctness gates use.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "isql/query_result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;  // where the traced run writes its spans
  std::string work_dir;    // scratch directory for stores (inside the checkout)
};

/// Statement classes. Each holds statements of one cost mode.
enum class Cls { kRead, kAgg, kWrite };
const char* ClsName(Cls cls);

/// One generated statement. `core` is the SQL core of an `agg` statement
/// with its world operations stripped (what one world executes).
struct Stmt {
  Cls cls = Cls::kRead;
  std::string sql;
  std::string core;
};

/// Uniform integer in [lo, hi] from the workload's seeded generator.
int64_t Uniform(maybms::base::SplitMix64* rng, int64_t lo, int64_t hi);

/// Draws labels in seeded, reshuffled blocks: every block of draws holds
/// each label exactly as often as it is listed, so the class and shape mix
/// of a run does not drift with the seed.
class Deck {
 public:
  explicit Deck(std::vector<int> labels) : labels_(std::move(labels)) {}
  int Draw(maybms::base::SplitMix64* rng);

 private:
  std::vector<int> labels_;
  std::vector<int> block_;
  size_t next_ = 0;
};

/// Expands {label, count} pairs into the label list of a Deck.
std::vector<int> Repeat(std::vector<std::pair<int, int>> label_counts);

/// A set of measurements; quantiles interpolate linearly between ranks.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// Collects metrics and correctness findings; Finish() prints every
/// metric by name and unit, then the JSON result line.
class Report {
 public:
  /// A metric of the JSON result (an end-to-end metric of an untraced
  /// run, or a per-layer metric of a traced run).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A metric printed by name and unit but kept out of the JSON result:
  /// one that only this workload has.
  void Extra(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  /// A correctness gate failed; the run reports correct=false.
  void Fail(const std::string& what);
  void CountStatement(bool ok);
  /// Notes a latency class's sample count and deciles; a class needs at
  /// least 100 samples per run, so that 10 lie beyond its p90.
  void CheckSamples(const std::string& cls, const Samples& samples);

  bool correct() const { return failures_.empty(); }
  double ok_frac() const;

  void Finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool json;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Spans recorded around the benchmark's calls into each layer. Spans of
/// one statement share its id; `parent` is 0 for a statement's root span.
/// Kept in memory, written out as JSON when the run ends. Not thread-safe:
/// each thread owns its tracer.
class Tracer {
 public:
  struct Span {
    uint64_t stmt = 0;
    uint64_t parent = 0;
    const char* cls = "";
    const char* layer = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Opens a span and returns its id (ids start at 1).
  uint64_t Open(uint64_t stmt, Cls cls, const char* layer, uint64_t parent);
  /// Closes span `id`; returns its duration in ms.
  double Close(uint64_t id);
  double DurationMs(uint64_t id) const;

  /// Sum of the direct children of root spans named `root_layer`, divided
  /// by the sum of those roots.
  double Coverage(const char* root_layer) const;

  bool WriteJson(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
};

/// Maximum resident set size of this process, MiB (getrusage).
double PeakRssMb();

/// Compares two query results of the same statement (tables, per-world
/// answers or world groups). Numeric values match within 1e-9 (relative
/// for large magnitudes), everything else exactly; rows compare as sorted
/// bags.
bool ResultsMatch(const maybms::isql::QueryResult& a,
                  const maybms::isql::QueryResult& b);

/// FNV-1a, for answer digests.
uint64_t Fnv1a(const std::string& text, uint64_t h = 1469598103934665603ull);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
