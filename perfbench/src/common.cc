#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

const char* ClsName(Cls cls) {
  switch (cls) {
    case Cls::kRead:
      return "read";
    case Cls::kAgg:
      return "agg";
    case Cls::kWrite:
      return "write";
  }
  return "?";
}

int64_t Uniform(maybms::base::SplitMix64* rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>((*rng)() % static_cast<uint64_t>(hi - lo + 1));
}

int Deck::Draw(maybms::base::SplitMix64* rng) {
  if (next_ == block_.size()) {
    block_ = labels_;
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[static_cast<size_t>(Uniform(rng, 0, i - 1))]);
    }
    next_ = 0;
  }
  return block_[next_++];
}

std::vector<int> Repeat(std::vector<std::pair<int, int>> label_counts) {
  std::vector<int> out;
  for (const auto& [label, n] : label_counts) out.insert(out.end(), n, label);
  return out;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit, true});
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit) {
  metrics_.push_back({name, value, unit, false});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::CountStatement(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::CheckSamples(const std::string& cls, const Samples& samples) {
  const size_t n = samples.size();
  std::string line = cls + ": " + std::to_string(n) + " samples, deciles (ms):";
  for (int d = 1; d <= 9; ++d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", samples.Quantile(d / 10.0));
    line += buf;
  }
  Note(line);
  if (n < 100) {
    Fail("class " + cls + " has " + std::to_string(n) +
         " samples; at least 100 are needed");
  }
}

double Report::ok_frac() const {
  return attempted_ == 0 ? 0
                         : static_cast<double>(attempted_ - failed_) /
                               static_cast<double>(attempted_);
}

static std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

static std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::Finish() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const std::string& f : failures_) {
    std::printf("# CORRECTNESS FAILURE: %s\n", f.c_str());
  }
  for (const Entry& e : metrics_) {
    std::printf("%-28s %16.6f %s%s\n", e.name.c_str(), e.value, e.unit.c_str(),
                e.json ? "" : "  (this workload only)");
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : metrics_) {
    if (!e.json) continue;
    if (!first) json += ", ";
    first = false;
    json += JsonString(e.name) + ": {\"value\": " + JsonNumber(e.value) +
            ", \"unit\": " + JsonString(e.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

static int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Open(uint64_t stmt, Cls cls, const char* layer,
                      uint64_t parent) {
  Span span;
  span.stmt = stmt;
  span.parent = parent;
  span.cls = ClsName(cls);
  span.layer = layer;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return spans_.size();
}

double Tracer::Close(uint64_t id) {
  spans_[id - 1].end_ns = NowNs();
  return DurationMs(id);
}

double Tracer::DurationMs(uint64_t id) const {
  const Span& s = spans_[id - 1];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

double Tracer::Coverage(const char* root_layer) const {
  std::string root(root_layer);
  std::vector<bool> is_root(spans_.size() + 1, false);
  double roots = 0;
  double children = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == 0 && root == spans_[i].layer) {
      is_root[i + 1] = true;
      roots += DurationMs(i + 1);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0 && is_root[spans_[i].parent]) {
      children += DurationMs(i + 1);
    }
  }
  return roots > 0 ? children / roots : 0;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": " << JsonString(workload) << ", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"stmt\": " << s.stmt
        << ", \"parent\": " << s.parent << ", \"class\": \"" << s.cls
        << "\", \"layer\": \"" << s.layer << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

static bool ValuesMatch(const maybms::Value& a, const maybms::Value& b) {
  if (a.IsNumeric() && b.IsNumeric()) {
    double x = a.NumericValue();
    double y = b.NumericValue();
    return std::fabs(x - y) <= 1e-9 * std::max(1.0, std::fabs(x));
  }
  return a == b;
}

static bool TablesMatch(const maybms::Table& a, const maybms::Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  maybms::Table x = a;
  maybms::Table y = b;
  x.SortRows();
  y.SortRows();
  for (size_t i = 0; i < x.num_rows(); ++i) {
    const maybms::Tuple& r = x.row(i);
    const maybms::Tuple& s = y.row(i);
    if (r.size() != s.size()) return false;
    for (size_t c = 0; c < r.size(); ++c) {
      if (!ValuesMatch(r.value(c), s.value(c))) return false;
    }
  }
  return true;
}

bool ResultsMatch(const maybms::isql::QueryResult& a,
                  const maybms::isql::QueryResult& b) {
  using Kind = maybms::isql::QueryResult::Kind;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Kind::kMessage:
      return a.message() == b.message();
    case Kind::kTable:
      return TablesMatch(a.table(), b.table());
    case Kind::kWorlds: {
      // Engines may group duplicate worlds differently: compare the
      // distribution over distinct answers.
      auto dist = [](const maybms::isql::QueryResult& r) {
        std::vector<std::pair<std::string, double>> d;
        for (const auto& [p, table] : r.worlds()) {
          maybms::Table t = table;
          t.SortRows();
          d.emplace_back(t.ToString(), p);
        }
        std::sort(d.begin(), d.end());
        std::vector<std::pair<std::string, double>> merged;
        for (const auto& e : d) {
          if (!merged.empty() && merged.back().first == e.first) {
            merged.back().second += e.second;
          } else {
            merged.push_back(e);
          }
        }
        return merged;
      };
      auto da = dist(a);
      auto db = dist(b);
      if (da.size() != db.size()) return false;
      for (size_t i = 0; i < da.size(); ++i) {
        if (da[i].first != db[i].first ||
            std::fabs(da[i].second - db[i].second) > 1e-9) {
          return false;
        }
      }
      return true;
    }
    case Kind::kGroups: {
      if (a.groups().size() != b.groups().size()) return false;
      // Match groups by key; group order is not part of the semantics.
      for (const auto& ga : a.groups()) {
        bool found = false;
        for (const auto& gb : b.groups()) {
          if (TablesMatch(ga.key, gb.key)) {
            found = std::fabs(ga.probability - gb.probability) <= 1e-9 &&
                    TablesMatch(ga.table, gb.table);
            break;
          }
        }
        if (!found) return false;
      }
      return true;
    }
  }
  return false;
}

uint64_t Fnv1a(const std::string& text, uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
