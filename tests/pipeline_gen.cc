#include "tests/pipeline_gen.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace maybms::testing {

std::string GeneratedPipeline::DebugString() const {
  std::ostringstream out;
  out << "-- setup (world bound " << world_bound << ")\n";
  for (const std::string& s : setup) out << s << "\n";
  out << "-- probes\n";
  for (const std::string& s : probes) out << s << "\n";
  out << "-- writes\n";
  for (const std::string& s : writes) out << s << "\n";
  return out.str();
}

PipelineGenerator::PipelineGenerator(uint32_t seed)
    : PipelineGenerator(seed, Options()) {}

PipelineGenerator::PipelineGenerator(uint32_t seed, Options options)
    : rng_(seed), options_(options) {}

// Derived from raw mt19937 output rather than std::uniform_*_distribution,
// whose mapping is implementation-defined: a seed must reproduce the same
// pipeline on every standard library, or failure seeds would not be
// portable. Modulo bias is irrelevant at our tiny ranges.
int PipelineGenerator::Int(int lo, int hi) {
  return lo + static_cast<int>(rng_() %
                               static_cast<uint32_t>(hi - lo + 1));
}

bool PipelineGenerator::Chance(double p) {
  return (rng_() >> 8) * (1.0 / 16777216.0) < p;  // 24 uniform bits
}

const PipelineGenerator::TableInfo& PipelineGenerator::Pick(
    bool prefer_uncertain, bool allow_views) {
  std::vector<size_t> eligible;
  eligible.reserve(tables_.size());
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (!allow_views && tables_[i].is_view) continue;
    eligible.push_back(i);
  }
  if (prefer_uncertain && Chance(0.8)) {
    std::vector<size_t> uncertain;
    for (size_t i : eligible) {
      if (tables_[i].uncertain) uncertain.push_back(i);
    }
    if (!uncertain.empty()) {
      return tables_[uncertain[Int(0, static_cast<int>(uncertain.size()) - 1)]];
    }
  }
  return tables_[eligible[Int(0, static_cast<int>(eligible.size()) - 1)]];
}

uint64_t PipelineGenerator::RepairFactor(const std::vector<Row>& rows,
                                         bool use_k, bool use_g) {
  std::map<std::pair<int, char>, uint64_t> groups;
  for (const Row& r : rows) ++groups[{use_k ? r.k : 0, use_g ? r.g : ' '}];
  uint64_t factor = 1;
  for (const auto& [key, n] : groups) factor *= n;
  return factor;
}

uint64_t PipelineGenerator::ChoiceFactor(const std::vector<Row>& rows,
                                         char col) {
  std::set<int> distinct;
  for (const Row& r : rows) distinct.insert(col == 'K' ? r.k : r.g);
  return std::max<uint64_t>(distinct.size(), 1);
}

void PipelineGenerator::EmitBaseTable(GeneratedPipeline* p) {
  TableInfo info;
  info.name = "B" + std::to_string(next_base_++);
  const char kGs[] = {'x', 'y', 'z'};
  int keys = Int(1, 3);
  for (int k = 0; k < keys; ++k) {
    int group = Int(1, 3);
    for (int i = 0; i < group; ++i) {
      info.ancestor_rows.push_back(
          Row{k, Int(1, 6), Int(1, 9), kGs[Int(0, 2)]});
    }
  }
  std::ostringstream create;
  create << "create table " << info.name
         << " (K integer, V integer, W integer, G text);";
  p->setup.push_back(create.str());

  std::ostringstream insert;
  insert << "insert into " << info.name << " values ";
  for (size_t i = 0; i < info.ancestor_rows.size(); ++i) {
    const Row& r = info.ancestor_rows[i];
    if (i > 0) insert << ", ";
    insert << "(" << r.k << ", " << r.v << ", " << r.w << ", '" << r.g << "')";
  }
  insert << ";";
  p->setup.push_back(insert.str());
  tables_.push_back(std::move(info));
}

void PipelineGenerator::EmitDerivedTable(GeneratedPipeline* p) {
  const TableInfo& src = Pick(/*prefer_uncertain=*/Chance(0.5));
  TableInfo info;
  info.name = "U" + std::to_string(next_derived_++);
  info.ancestor_rows = src.ancestor_rows;

  std::ostringstream sql;
  sql << "create table " << info.name << " as select K, V, ";
  // Occasionally retype W to REAL (`W + 0.5 as W`): any later repair or
  // choice sourcing this table with `weight W` then runs on non-integer
  // weights. The row identity structure (K, G) is untouched, so the
  // world-bound math below stays valid.
  sql << (Chance(0.25) ? "W + 0.5 as W" : "W") << ", G from " << src.name;
  // A WHERE filter only ever shrinks repair/choice fan-out, so the world
  // bound computed from the unfiltered ancestor rows stays valid.
  if (Chance(0.35)) sql << " where " << RandomPredicate("");

  // Weight clause for repair/choice: usually the numeric W (integer or
  // real depending on the source), rarely the TEXT column G — a negative
  // case that must fail identically on both engines ("weight column must
  // hold numeric non-NULL values").
  auto weight_clause = [&]() -> const char* {
    int roll = Int(0, 9);
    if (roll < 5) return " weight W";
    if (roll == 5) return " weight G";
    return "";
  };

  int form = Int(0, 3);
  uint64_t factor = 1;
  if (form == 0) {  // repair by key
    bool key_includes_g = Chance(0.3);
    factor = RepairFactor(src.ancestor_rows, /*use_k=*/true, key_includes_g);
    if (world_bound_ * factor <= options_.world_budget) {
      sql << " repair by key K" << (key_includes_g ? ", G" : "")
          << weight_clause();
    } else {
      factor = 1;  // over budget: plain filtered copy
    }
  } else if (form == 1) {  // choice of
    char col = Chance(0.5) ? 'K' : 'G';
    factor = ChoiceFactor(src.ancestor_rows, col);
    if (world_bound_ * factor <= options_.world_budget) {
      sql << " choice of " << col << weight_clause();
    } else {
      factor = 1;
    }
  } else if (form == 2) {  // assert (drops worlds; never multiplies)
    sql << " assert exists(select * from " << src.name << " where V >= "
        << Int(1, 2) << ")";
  }
  // form == 3: plain per-world selection.
  sql << ";";
  world_bound_ *= factor;
  info.uncertain = src.uncertain || factor > 1;
  p->setup.push_back(sql.str());
  tables_.push_back(std::move(info));
}

void PipelineGenerator::EmitRepairChain(GeneratedPipeline* p) {
  // A repair chain of depth >= 3: C0 repairs an existing table, C1
  // repairs C0, C2 repairs C1. Links that would blow the world budget
  // degrade to plain copies so the chain always reaches its depth; key
  // columns vary per link so repairs of an already-key-unique relation
  // can still multiply worlds (e.g. repair by key K, then by key G).
  const TableInfo* prev = &Pick(/*prefer_uncertain=*/Chance(0.5));
  const int depth = 3;
  for (int link = 0; link < depth; ++link) {
    TableInfo info;
    info.name = "C" + std::to_string(next_chain_++);
    info.ancestor_rows = prev->ancestor_rows;

    std::ostringstream sql;
    sql << "create table " << info.name << " as select K, V, W, G from "
        << prev->name;
    int key_form = Int(0, 2);
    bool use_k = key_form != 1;
    bool use_g = key_form != 0;
    uint64_t factor = RepairFactor(info.ancestor_rows, use_k, use_g);
    bool repaired = false;
    if (world_bound_ * factor <= options_.world_budget) {
      sql << " repair by key" << (use_k ? " K" : "")
          << (use_k && use_g ? "," : "") << (use_g ? " G" : "")
          << (Chance(0.5) ? " weight W" : "");
      world_bound_ *= factor;
      repaired = true;
    }
    sql << ";";
    info.uncertain = prev->uncertain || (repaired && factor > 1);
    p->setup.push_back(sql.str());
    tables_.push_back(std::move(info));
    prev = &tables_.back();
  }
}

void PipelineGenerator::EmitView(GeneratedPipeline* p) {
  // Views are named queries expanded at use; they may reference earlier
  // views (the session materializes dependencies first) and may carry an
  // `assert`, in which case probing them evaluates against the derived
  // world-set the view denotes — on both engines.
  const TableInfo& src = Pick(Chance(0.5), /*allow_views=*/true);
  TableInfo info;
  info.name = "V" + std::to_string(next_view_++);
  info.uncertain = src.uncertain;
  info.is_view = true;
  info.ancestor_rows = src.ancestor_rows;

  std::ostringstream sql;
  sql << "create view " << info.name << " as select K, V, W, G from "
      << src.name;
  if (Chance(0.5)) sql << " where " << RandomPredicate("");
  if (Chance(0.15)) {
    sql << " assert exists(select * from " << src.name << " where V >= "
        << Int(1, 2) << ")";
  }
  sql << ";";
  p->setup.push_back(sql.str());
  tables_.push_back(std::move(info));
}

void PipelineGenerator::EmitLateDml(GeneratedPipeline* p) {
  // Late DML runs in every world and never multiplies the world count.
  // Views are never targets (and never appear in DML subqueries: the
  // session does not expand views for DML).
  if (Chance(0.5)) {
    const TableInfo& t = Pick(/*prefer_uncertain=*/Chance(0.5));
    const char kGs[] = {'x', 'y', 'z'};
    std::ostringstream sql;
    sql << "insert into " << t.name << " values (" << Int(0, 3) << ", "
        << Int(1, 6) << ", " << Int(1, 9) << ", '" << kGs[Int(0, 2)] << "');";
    p->setup.push_back(sql.str());
  }
  if (Chance(0.25)) {
    // Half the time on an uncertain relation: the delete then runs in
    // every world of its components.
    const TableInfo& t = Pick(/*prefer_uncertain=*/Chance(0.5));
    std::ostringstream sql;
    sql << "delete from " << t.name << " where " << RandomPredicate("");
    sql << ";";
    p->setup.push_back(sql.str());
  }
  if (Chance(0.2)) {
    // Divides by zero in exactly the worlds holding a row with V = c:
    // often some worlds but not all, and then the update must fail in
    // every world, identically on both engines.
    const TableInfo& t = Pick(/*prefer_uncertain=*/true);
    std::ostringstream sql;
    sql << "update " << t.name << " set V = V + 1 where W / (V - "
        << Int(1, 6) << ") > 0;";
    p->setup.push_back(sql.str());
  }
  if (Chance(0.35)) {
    const TableInfo& t = Pick(/*prefer_uncertain=*/true);
    std::ostringstream sql;
    sql << "update " << t.name << " set ";
    switch (Int(0, 2)) {
      case 0:  // constant-step right-hand side
        sql << "V = V + 1";
        break;
      case 1:  // expression RHS over other columns of the row
        sql << (Chance(0.5) ? "V = V + W" : "W = V * 2");
        break;
      default:  // multiple assignments, expression RHS
        sql << "V = W + " << Int(0, 2) << ", W = W + 1";
        break;
    }
    sql << " where ";
    if (Chance(0.4)) {
      // WHERE with a subquery: the referenced table pulls its component
      // into the decomposed engine's DML merge.
      const TableInfo& u = Pick(/*prefer_uncertain=*/true);
      if (Chance(0.5)) {
        sql << "K in (select K from " << u.name << " where "
            << RandomPredicate("") << ")";
      } else {
        sql << "exists(select * from " << u.name << " where V >= "
            << Int(1, 3) << ")";
      }
    } else {
      sql << RandomPredicate("");
    }
    sql << ";";
    p->setup.push_back(sql.str());
  }
}

std::string PipelineGenerator::RandomPredicate(const std::string& q) {
  std::ostringstream out;
  switch (Int(0, 5)) {
    case 0:
      out << q << "V > " << Int(1, 5);
      break;
    case 1:
      out << q << "V <= " << Int(2, 6);
      break;
    case 2:
      out << q << "K <> " << Int(0, 2);
      break;
    case 3: {
      const char kGs[] = {'x', 'y', 'z'};
      out << q << "G = '" << kGs[Int(0, 2)] << "'";
      break;
    }
    case 4: {
      int lo = Int(1, 4);
      out << q << "V between " << lo << " and " << lo + Int(1, 2);
      break;
    }
    default:
      out << q << "W >= " << Int(1, 8);
      break;
  }
  return out.str();
}

std::string PipelineGenerator::RandomProjection(const std::string& q) {
  switch (Int(0, 6)) {
    case 0:
      return "*";
    case 1:
      return q + "K";
    case 2:
      return q + "V";
    case 3:
      return q + "K, " + q + "V";
    case 4:
      return q + "V, " + q + "G";
    case 5:
      return q + "V + 1 as X";
    default:
      return q + "K, " + q + "V, " + q + "G";
  }
}

std::string PipelineGenerator::RandomProbe() {
  // Quantifier: 0 = none (per-world result), 1 = possible, 2 = certain,
  // 3 = conf.
  int quant = Int(0, 3);
  const char* quant_prefix[] = {"", "possible ", "certain ", "conf, "};
  std::ostringstream out;
  switch (Int(0, 11)) {
    case 0: {  // selection + projection scan
      const TableInfo& t = Pick(true, /*allow_views=*/true);
      out << "select " << quant_prefix[quant] << RandomProjection("");
      out << " from " << t.name;
      if (Chance(0.6)) out << " where " << RandomPredicate("");
      break;
    }
    case 1: {  // self-join
      const TableInfo& t = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      out << "select " << quant_prefix[quant] << "a.V, b.K from " << t.name
          << " a, " << t.name << " b where a.K < b.K";
      if (Chance(0.5)) out << " and " << RandomPredicate("b.");
      break;
    }
    case 2: {  // equi-join of two tables
      const TableInfo& a = Pick(true);
      const TableInfo& b = Pick(false);
      out << "select " << quant_prefix[quant] << "a.K, b.V from " << a.name
          << " a, " << b.name << " b where a.K = b.K";
      if (Chance(0.5)) out << " and " << RandomPredicate("a.");
      break;
    }
    case 3: {  // aggregate
      // possible/certain of count(*), count(col) and sum(col) answer in
      // closed form on the decomposed engine; sum(W) runs over a REAL
      // column when W was retyped, and the last two WHERE shapes fail in
      // some worlds only, which the closed form leaves to the pipeline.
      const TableInfo& t = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      struct Aggregate {
        const char* function;
        const char* column;  // null: (*)
      };
      const Aggregate kAggs[] = {{"sum", "V"},   {"count", nullptr},
                                 {"min", "V"},   {"max", "W"},
                                 {"count", "V"}, {"sum", "W"}};
      const Aggregate& agg = kAggs[Int(0, 5)];
      const std::string q = Chance(0.25) ? "t." : "";
      out << "select " << quant_prefix[quant] << agg.function << "("
          << (agg.column != nullptr ? q + agg.column : "*") << ") from "
          << t.name << (q.empty() ? "" : " t");
      switch (Int(0, 4)) {
        case 0:
        case 1:
          break;
        case 2:
          out << " where " << RandomPredicate(q);
          break;
        case 3:
          out << " where " << q << "W / (" << q << "V - " << Int(1, 6)
              << ") > 0";
          break;
        default:
          out << " where " << q << "K > 1 or cast(" << q
              << "G as integer) > 0";
          break;
      }
      break;
    }
    case 4: {  // bare conf with a subquery condition
      const TableInfo& t = Pick(true);
      const TableInfo& u = Pick(true);
      if (Chance(0.5)) {
        out << "select conf from " << t.name << " where " << Int(5, 30)
            << " > (select sum(V) from " << u.name << ")";
      } else {
        out << "select conf from " << t.name
            << " where exists(select * from " << u.name << " where "
            << RandomPredicate("") << ")";
      }
      break;
    }
    case 5: {  // group worlds by (plain, with assert, or over repair)
      const TableInfo& t = Pick(true);
      const TableInfo& u = Pick(true);
      const char* kQuant[] = {"possible", "certain"};
      const char* kKey[] = {"min(V)", "count(*)", "max(V)"};
      out << "select " << kQuant[Int(0, 1)] << " " << RandomProjection("")
          << " from " << t.name;
      // Probe-level repair: SELECT never materializes, so this only
      // multiplies worlds during evaluation (bounded by budget x ~27),
      // pitting the explicit engine's streaming grouped repair
      // enumeration against the decomposed engine's materializing path.
      bool probe_repair = Chance(0.2);
      if (probe_repair) out << " repair by key K";
      if (!probe_repair && Chance(0.3)) {
        out << " assert exists(select * from " << u.name << " where "
            << RandomPredicate("") << ")";
      }
      out << " group worlds by (select " << kKey[Int(0, 2)] << " from "
          << u.name;
      if (Chance(0.5)) out << " where " << RandomPredicate("");
      out << ")";
      break;
    }
    case 6: {  // query-level assert
      const TableInfo& t = Pick(true);
      out << "select " << quant_prefix[quant] << "V from " << t.name
          << " assert exists(select * from " << t.name << " where V >= "
          << Int(1, 2) << ")";
      break;
    }
    case 7: {  // set operation
      const TableInfo& a = Pick(true);
      const TableInfo& b = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      const char* kOps[] = {"union", "intersect", "except"};
      out << "select " << quant_prefix[quant] << "V from " << a.name << " "
          << kOps[Int(0, 2)] << " select V from " << b.name;
      break;
    }
    case 8: {  // correlated EXISTS subquery
      const TableInfo& t = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      out << "select " << quant_prefix[quant] << "t.K from " << t.name
          << " t where exists(select * from " << t.name
          << " t2 where t2.V = t.V and t2.K <> t.K)";
      break;
    }
    case 9: {  // explicit [LEFT] JOIN ... ON with equi key + residual
      const TableInfo& a = Pick(true);
      const TableInfo& b = Pick(false);
      out << "select " << quant_prefix[quant] << "a.K, b.V from " << a.name
          << " a " << (Chance(0.5) ? "left join " : "join ") << b.name
          << " b on a.K = b.K";
      if (Chance(0.5)) out << " and a.V < b.W";
      if (Chance(0.4)) out << " where " << RandomPredicate("a.");
      break;
    }
    case 10: {  // ORDER BY [DESC] with optional LIMIT: ordered prefixes
      // must agree across engines — guaranteed by the deterministic
      // full-row tie-break (docs/isql.md). The harness compares these
      // per-world answers as ordered sequences, not multisets.
      const TableInfo& t = Pick(true, /*allow_views=*/true);
      out << "select " << quant_prefix[quant] << RandomProjection("")
          << " from " << t.name;
      if (Chance(0.5)) out << " where " << RandomPredicate("");
      out << " order by 1";
      if (Chance(0.4)) out << " desc";
      if (Chance(0.7)) out << " limit " << Int(1, 4);
      break;
    }
    default: {  // correlated IN / scalar-aggregate subquery
      const TableInfo& t = Pick(true);
      const TableInfo& u = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      if (Chance(0.5)) {
        out << "select " << quant_prefix[quant] << "t.K from " << t.name
            << " t where t.V " << (Chance(0.3) ? "not in" : "in")
            << " (select u.V from " << u.name << " u where u.K = t.K)";
      } else {
        const char* aggs[] = {"max(u.V)", "count(*)", "sum(u.W)"};
        out << "select " << quant_prefix[quant] << "t.K, t.V from " << t.name
            << " t where " << Int(0, 3) << " < (select " << aggs[Int(0, 2)]
            << " from " << u.name << " u where u.K = t.K)";
      }
      break;
    }
  }
  out << ";";
  return out.str();
}

std::string PipelineGenerator::SummaryProbe() {
  const TableInfo& t = Pick(true);
  const TableInfo& u = Pick(true);
  const char* kAggs[] = {"count(*)", "count(V)", "sum(V)"};
  const char* kKeys[] = {"count(*)", "sum(V)", "count(V)", "V", "K, G"};
  std::ostringstream out;
  const bool quantified = Chance(0.7);
  out << "select " << (quantified ? "conf, " : "");
  if (Chance(0.5)) {
    out << kAggs[Int(0, 2)];
  } else {
    out << RandomProjection("");
  }
  out << " from " << t.name;
  if (Chance(0.6)) out << " where " << RandomPredicate("");
  if (Chance(0.6)) {
    out << " assert " << (Chance(0.5) ? "not " : "") << "exists (select * from "
        << u.name << " where " << RandomPredicate("") << ")";
  }
  if (quantified && Chance(0.5)) {
    out << " group worlds by (select " << kKeys[Int(0, 4)] << " from "
        << t.name << " where " << RandomPredicate("") << ")";
  }
  out << ";";
  return out.str();
}

void PipelineGenerator::EmitRowLocalWrite(GeneratedPipeline* p) {
  const TableInfo& t = Pick(/*prefer_uncertain=*/true);
  const char kGs[] = {'x', 'y', 'z'};
  std::ostringstream write;
  switch (Int(0, 5)) {
    case 0:  // one key
      write << "update " << t.name << " set V = V + " << Int(1, 3)
            << " where K = " << Int(0, 2);
      break;
    case 1:  // several assignments, read from the pre-update row
      write << "update " << t.name << " set V = W, W = V where "
            << RandomPredicate("");
      break;
    case 2:
      write << "delete from " << t.name << " where K = " << Int(0, 2)
            << (Chance(0.5) ? " and V > 3" : "");
      break;
    case 3:  // no row of any alternative matches
      write << "update " << t.name << " set V = 0 where K = 9";
      break;
    case 4:  // divides by zero in some alternatives only: the per-world pass
      write << "delete from " << t.name << " where W / (V - " << Int(1, 6)
            << ") > 1";
      break;
    default:
      write << "insert into " << t.name << " values (" << Int(0, 3) << ", "
            << Int(1, 6) << ", " << Int(1, 9) << ", '" << kGs[Int(0, 2)]
            << "')";
      break;
  }
  write << ";";
  p->writes.push_back(write.str());
  p->writes.push_back("select conf, K, V, W, G from " + t.name + ";");
  p->writes.push_back("select K, V from " + t.name + " where " +
                      RandomPredicate("") + ";");
  p->writes.push_back(SummaryProbe());
}

void PipelineGenerator::EmitWideRepair(GeneratedPipeline* p) {
  const char kGs[] = {'x', 'y', 'z'};
  const int keys = Int(4, 8);
  std::ostringstream insert;
  insert << "insert into WB values ";
  for (int k = 0; k < keys; ++k) {
    // A second row per key doubles the worlds, within the budget.
    const bool pair =
        world_bound_ * 2 <= options_.world_budget && Chance(0.5);
    if (pair) world_bound_ *= 2;
    for (int i = 0; i < (pair ? 2 : 1); ++i) {
      insert << (k + i > 0 ? ", (" : "(") << k << ", ";
      if (Chance(0.15)) {
        insert << "NULL";
      } else {
        insert << Int(1, 6);
      }
      insert << ", " << Int(1, 9) << ", '" << kGs[Int(0, 2)] << "')";
    }
  }
  insert << ";";
  p->writes.push_back("create table WB (K integer, V integer, W integer, "
                      "G text);");
  p->writes.push_back(insert.str());
  p->writes.push_back(
      "create table WR as select K, V, G from WB repair by key K weight W;");

  const char* kQuantifiers[] = {"possible ", "certain ", "conf, "};
  const int probes = Int(2, 4);
  for (int i = 0; i < probes; ++i) {
    const std::string q = kQuantifiers[Int(0, 2)];
    const std::string set_q = Chance(0.5) ? "possible " : "certain ";
    const int c = Int(0, keys + 1);  // sometimes past the last key
    std::ostringstream out;
    switch (Int(0, 7)) {
      case 0:
        out << "select " << q << "K, V from WR where K between " << c
            << " and " << c + Int(0, 2);
        break;
      case 1:
        out << "select " << q << "K, V, G from WR where K = " << c;
        break;
      case 2:
        out << "select " << q << "K from WR where K in (" << c << ", "
            << Int(0, keys) << ") and V > " << Int(0, 4);
        break;
      case 3:
        out << "select " << set_q << "K, sum(V) from WR where K < " << c
            << " group by K";
        break;
      case 4:
        out << "select " << set_q << "A.V from WR A, WR B where A.K = " << c
            << " and B.K = " << Int(0, keys) << " and A.V = B.V";
        break;
      case 5:
        out << "select " << set_q << (Chance(0.5) ? "count(*)" : "sum(V)")
            << " from WR where K >= " << c;
        break;
      case 6:
        out << "select " << q << "K, V from WR where G = '" << kGs[Int(0, 2)]
            << "' and not (K < " << c << ")";
        break;
      default:
        out << "select " << q << "K from WR where V is null or K = " << c;
        break;
    }
    out << ";";
    p->writes.push_back(out.str());
  }
}

GeneratedPipeline PipelineGenerator::Generate() {
  GeneratedPipeline p;
  tables_.clear();
  world_bound_ = 1;
  next_base_ = 0;
  next_derived_ = 0;
  next_view_ = 0;

  int bases = Int(1, options_.max_base_tables);
  for (int i = 0; i < bases; ++i) EmitBaseTable(&p);
  int derived = Int(1, options_.max_derived_tables);
  for (int i = 0; i < derived; ++i) EmitDerivedTable(&p);
  if (Chance(0.35)) EmitRepairChain(&p);
  int views = Int(0, 2);
  for (int i = 0; i < views; ++i) EmitView(&p);
  EmitLateDml(&p);

  int probes = Int(options_.min_probes, options_.max_probes);
  for (int i = 0; i < probes; ++i) p.probes.push_back(RandomProbe());
  // Drawn last, so the rest of a seed's pipeline does not move with them.
  p.probes.push_back(SummaryProbe());
  EmitRowLocalWrite(&p);
  EmitWideRepair(&p);

  p.world_bound = world_bound_;
  return p;
}

}  // namespace maybms::testing
