// Experiment E2.8/E2.9 (DESIGN.md): regenerates `possible sum(B)` =
// {44, 49, 50, 55} and `certain E ... choice of C` = {e1}, then measures
// possible/certain evaluation:
//  * the per-tuple case (selection over one uncertain relation), where
//    the decomposed engine uses per-component math without enumeration;
//  * the aggregate case, which correlates components: the explicit
//    engine enumerates worlds, the decomposed engine adds per-component
//    value sets (the closed-form aggregate);
//  * the slice case: a 20-key range of a 2,000-key weighted repair, the
//    decomposed fast path's one pass over the relation's components,
//    and `possible sum` over the whole repair (100,536 answers);
//  * row-local statements that still enumerate worlds (conf of a count,
//    GROUP WORLDS BY a sum, an assert): the explicit engine runs SQL in
//    every world, the decomposed engine assembles every world from one
//    pass's per-alternative summaries;
//  * a single-key update of a 3-row-per-key repair, which the decomposed
//    engine applies per alternative without merging components, and an
//    assert over a repair after such an update;
//  * a possible GROUP BY and a possible self-join over two keys of a
//    40-key, 3-row repair: the decomposed engine enumerates only the 9
//    worlds of the two components their WHERE clauses can read.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/workloads.h"
#include "isql/session.h"

namespace maybms::bench {
namespace {

using isql::EngineMode;

void PrintExamples() {
  auto session = MakeSession(EngineMode::kDecomposed);
  MustExecute(*session, Fig1Script());
  MustExecute(*session,
              "create table I as select A, B, C from R "
              "repair by key A weight D;");
  PrintReproduction("Example 2.8: possible sums (paper: 44, 49, 50, 55)",
                    *session, "select possible sum(B) from I;");
  PrintReproduction("Example 2.9: certain E across choice-of C (paper: e1)",
                    *session, "select certain E from S choice of C;");
}

void BM_Quantifier(benchmark::State& state, EngineMode mode,
                   const std::string& query, int n_keys, int group_size) {
  auto session = MakeSession(mode);
  MustExecute(*session, KeyViolationScript(n_keys, group_size));
  MustExecute(*session,
              "create table I as select K, V from R repair by key K;");
  for (auto _ : state) {
    auto result = MustQuery(*session, query);
    benchmark::DoNotOptimize(result.kind());
  }
  state.counters["keys"] = n_keys;
}

/// A 20-key `between` slice over a 2,000-key, 3-row weighted repair:
/// about 60 of the 6,000 alternatives answer.
void BM_Slice(benchmark::State& state, const std::string& query) {
  constexpr int kKeys = 2000;
  auto session = MakeSession(EngineMode::kDecomposed);
  MustExecute(*session, KeyViolationScript(kKeys, 3));
  MustExecute(*session,
              "create table I as select K, V from R repair by key K weight W;");
  for (auto _ : state) {
    auto result = MustQuery(*session, query);
    benchmark::DoNotOptimize(result.kind());
  }
  state.counters["keys"] = kKeys;
}

/// `update I set V = V + 1 where K = 3` on an `n_keys` x 3 repair: a
/// row-local write, applied to the one component it touches.
void BM_UpdateOneKey(benchmark::State& state) {
  const int n_keys = static_cast<int>(state.range(0));
  auto session = MakeSession(EngineMode::kDecomposed);
  MustExecute(*session, KeyViolationScript(n_keys, 3));
  MustExecute(*session,
              "create table I as select K, V from R repair by key K;");
  for (auto _ : state) {
    auto result = MustQuery(*session, "update I set V = V + 1 where K = 3;");
    benchmark::DoNotOptimize(result.kind());
  }
  state.counters["keys"] = n_keys;
}

/// An assert over a 6 x 3 repair (729 worlds) after one single-key update,
/// which leaves the six components as they were.
void BM_AssertAfterUpdate(benchmark::State& state) {
  const int n_keys = static_cast<int>(state.range(0));
  auto session = MakeSession(EngineMode::kDecomposed);
  MustExecute(*session, KeyViolationScript(n_keys, 3));
  MustExecute(*session,
              "create table I as select K, V from R repair by key K;");
  MustExecute(*session, "update I set V = V + 1 where K = 2;");
  for (auto _ : state) {
    auto result = MustQuery(*session,
                            "select conf, K, V from I assert exists (select * "
                            "from I where K < 2 and V >= 50);");
    benchmark::DoNotOptimize(result.kind());
  }
  state.counters["keys"] = n_keys;
}

void RegisterBenchmarks() {
  struct Variant {
    const char* name;
    const char* query;
  };
  const Variant kTupleLevel[] = {
      {"possible_tuple", "select possible K, V from I where V < 50;"},
      {"certain_tuple", "select certain K, V from I where V < 50;"},
  };
  const Variant kAggregate[] = {
      {"possible_sum", "select possible sum(V) from I;"},
      {"certain_count", "select certain count(*) from I;"},
  };
  const Variant kSummarized[] = {
      {"conf_count", "select conf, count(*) from I where V > 50;"},
      {"gwb_sum",
       "select possible V from I group worlds by (select sum(V) from I "
       "where K < 2);"},
      {"assert_exists",
       "select conf, K, V from I assert exists (select * from I "
       "where K < 2 and V >= 50);"},
  };

  const Variant kNarrowed[] = {
      {"possible_group_by",
       "select possible K, sum(V) from I where K < 2 group by K;"},
      {"possible_self_join",
       "select possible I1.V from I I1, I I2 where I1.K = 1 and I2.K = 2 "
       "and I1.V = I2.V;"},
  };
  for (const auto& v : kNarrowed) {
    benchmark::RegisterBenchmark(
        (std::string(v.name) + "/decomposed/keys:40").c_str(),
        [v](benchmark::State& s) {
          BM_Quantifier(s, EngineMode::kDecomposed, v.query, 40, 3);
        })
        ->Unit(benchmark::kMicrosecond);
  }
  for (int n : {12, 40}) {
    benchmark::RegisterBenchmark(
        ("update_one_key/decomposed/keys:" + std::to_string(n)).c_str(),
        BM_UpdateOneKey)
        ->Args({n})
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::RegisterBenchmark("assert_after_update/decomposed/keys:6",
                               BM_AssertAfterUpdate)
      ->Args({6})
      ->Unit(benchmark::kMicrosecond);

  for (EngineMode mode : {EngineMode::kExplicit, EngineMode::kDecomposed}) {
    std::string engine =
        mode == EngineMode::kExplicit ? "explicit" : "decomposed";
    // Tuple-level: decomposed never enumerates; push sizes far beyond the
    // explicit engine's reach only for decomposed. The explicit sizes
    // were raised once the streaming combiner (worlds/combiner.h) made
    // per-world combination linear in answer tuples.
    for (const auto& v : kTupleLevel) {
      std::vector<int> sizes = {4, 8, 16, 18};
      if (mode == EngineMode::kDecomposed) {
        sizes = {4, 8, 16, 100, 1000, 10000, 20000, 40000};
      }
      for (int n : sizes) {
        benchmark::RegisterBenchmark(
            (std::string(v.name) + "/" + engine + "/keys:" +
             std::to_string(n))
                .c_str(),
            [mode, v](benchmark::State& s) {
              BM_Quantifier(s, mode, v.query, static_cast<int>(s.range(0)),
                            2);
            })
            ->Args({n})
            ->Unit(benchmark::kMicrosecond);
      }
    }
    if (mode == EngineMode::kDecomposed) {
      const Variant kSlice[] = {
          {"possible_slice", "select possible K, V from I where K between "
                             "990 and 1009;"},
          {"certain_slice", "select certain K from I where K between 990 "
                            "and 1009;"},
          {"conf_slice", "select conf, K, V from I where K between 990 and "
                         "1009;"},
          {"possible_sum", "select possible sum(V) from I;"},
      };
      for (const auto& v : kSlice) {
        benchmark::RegisterBenchmark(
            (std::string(v.name) + "/decomposed/keys:2000").c_str(),
            [v](benchmark::State& s) { BM_Slice(s, v.query); })
            ->Unit(benchmark::kMicrosecond);
      }
    }
    // Aggregates correlate all key groups: the explicit engine enumerates
    // them (keys:18 is 262144 worlds), the decomposed engine does not.
    for (const auto& v : kAggregate) {
      for (int n : {4, 8, 12, 16, 18}) {
        benchmark::RegisterBenchmark(
            (std::string(v.name) + "/" + engine + "/keys:" +
             std::to_string(n))
                .c_str(),
            [mode, v](benchmark::State& s) {
              BM_Quantifier(s, mode, v.query, static_cast<int>(s.range(0)),
                            2);
            })
            ->Args({n})
            ->Unit(benchmark::kMicrosecond);
      }
    }
    for (const auto& v : kSummarized) {
      for (int n : {8, 12, 16}) {
        benchmark::RegisterBenchmark(
            (std::string(v.name) + "/" + engine + "/keys:" +
             std::to_string(n))
                .c_str(),
            [mode, v](benchmark::State& s) {
              BM_Quantifier(s, mode, v.query, static_cast<int>(s.range(0)),
                            2);
            })
            ->Args({n})
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
}

}  // namespace
}  // namespace maybms::bench

int main(int argc, char** argv) {
  maybms::bench::PrintExamples();
  maybms::bench::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
